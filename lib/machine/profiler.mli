(** Trace-driven program profiler: interprets a lowered program against
    concrete buffers while simulating the cache hierarchy and counting
    issued instructions.  One [run] is one simulated "on-device
    measurement" of the auto-tuner (see the implementation header for the
    modelling notes on vectorization, register accumulation, parallelism
    and sampling).

    Innermost loops whose accesses are affine in the loop variable, with
    any stride, are executed by a line-granular batching engine
    (DESIGN.md §9), together with the perfect chain of loops above them
    that the accesses are affine in; it produces bit-identical counters
    and outputs to the element-wise interpreter.  Its values come from
    the leaf compiler the exec kernels share
    ({!Alt_ir.Loopenv.leaf_group}).  Statements with non-affine accesses
    (div/mod, min/max) or loads under a select, and groups with a Reduce
    that is not the last leaf, fall back to the scalar path. *)

module Program = Alt_ir.Program

type result = {
  machine : Machine.t;
  insts : float;  (** issued instructions (vector-scaled) *)
  loads : float;  (** load instructions *)
  stores : float;
  flops : float;
  l1_accesses : float;
  l1_misses : float;
  l2_misses : float;
  parallel_extent : int;
  cycles : float;
  latency_ms : float;
  sampled : bool;  (** outer loops were truncated; outputs are partial *)
  scale : float;  (** counter extrapolation factor when sampled *)
}

(** Fast-engine coverage counters (observability only; the numbers in
    {!result} never depend on them).  A "leaf group" is an innermost loop
    whose body consists of Store/Reduce statements — the unit the fast
    engine batches.  Pass a fresh record per [run]: the profiler may be
    driven from several domains concurrently. *)
type engine_stats = {
  mutable fast_groups : int;  (** leaf groups compiled to the fast path *)
  mutable scalar_groups : int;  (** leaf groups that fell back *)
  mutable fast_runs : int;  (** innermost-loop executions, fast engine *)
  mutable scalar_runs : int;  (** innermost-loop executions, fallback *)
}

val fresh_engine_stats : unit -> engine_stats

val parallel_extent : Program.t -> int
(** Product of the extents of [Parallel] loops — the [parallel_extent]
    the profiler reports; exported so other backends (exec) can fill the
    same {!result} field consistently. *)

val run :
  ?machine:Machine.t -> ?max_points:int -> ?fast:bool ->
  ?engine:engine_stats -> Program.t -> bufs:float array array -> result
(** Execute the program over per-slot physical buffers (see
    {!Runtime.alloc_bufs}).  When the iteration count exceeds
    [max_points], outermost loops are truncated and counters rescaled.
    [fast] (default true) selects the line-granular batching engine for
    eligible innermost loops; [~fast:false] runs everything on the
    scalar interpreter, the engine's differential oracle.  Results are
    identical either way.  [engine] receives coverage counts of fast vs
    fallback execution. *)

val pp_result : result Fmt.t
