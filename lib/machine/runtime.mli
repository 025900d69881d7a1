(** Convenience runtime: allocate physical buffers from logical inputs,
    execute a program under the profiler, and unpack results — the path
    tests and examples use to check transformed programs bit-for-bit
    against the reference interpreter. *)

module Program = Alt_ir.Program

val alloc_bufs :
  Program.t -> inputs:(string * float array) list -> float array array
(** Inputs are packed through their slot layouts; non-inputs are
    zero-initialized. *)

(** Which device measures a program (DESIGN.md §12): [Sim] interprets it
    under the cache simulator (the default everywhere); [Exec] compiles
    it to macro-kernels and times real, serial execution with the given
    warmup/repeat discipline.  Both produce element-wise identical
    outputs and a {!Profiler.result}; only [Sim] models the speedup of
    [Parallel] loops. *)
type backend = Sim | Exec of Alt_exec.Exec.cfg

val backend_tag : backend -> string
(** Short stable tag ("sim", "exec:w2:r5:wall", "exec:w1:r3:virtual",
    ...) used in measurement-cache fingerprints: sim and exec results
    never mix, and neither do exec results under different warmup,
    repeat or clock settings. *)

val measure :
  machine:Machine.t -> ?max_points:int -> backend -> Program.t ->
  bufs:float array array -> Profiler.result
(** Measure a program over per-slot physical buffers on [backend].  [Sim]
    is {!Profiler.run}, whose [max_points] caps the simulated iteration
    points.  [Exec] times the compiled kernels with {!Alt_exec.Exec.measure}
    and presents the wall clock as a profiler result ([latency_ms] is
    the median wall time; counter fields are zero, [sampled] is false),
    so caches, checkpoints and tuners consume it unchanged; it always
    runs the full program. *)

val run_logical :
  ?machine:Machine.t -> ?max_points:int -> ?backend:backend ->
  Program.t ->
  inputs:(string * float array) list ->
  (string * float array) list * Profiler.result
(** Run end-to-end on logical inputs; returns the logical contents of every
    non-input slot plus the profile.  [max_points] is passed to
    {!Profiler.run} and ignored by the [Exec] backend (which always runs
    the full program). *)
