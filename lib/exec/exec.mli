(** Exec-backend measurement discipline (DESIGN.md §12): compile once,
    warm up, then take repeated timed runs and report the median.  The
    device is serial: a kernel runs its [Parallel] loops like any other
    loop (see {!Kernel}).

    Wall-clock numbers are inherently noisy, so two rules hold
    everywhere this module is used: assertions compare ratios, never
    absolute milliseconds, and anything that must be deterministic
    (fault-injection differentials, checkpoint replay tests) uses a
    {!Virtual} clock, which executes the kernel exactly once and derives
    every sample from the program instead of the machine. *)

module Program = Alt_ir.Program

type clock =
  | Wall  (** [Unix.gettimeofday] around each timed run *)
  | Virtual of (Program.t -> float)
      (** deterministic pseudo-time: every sample is [f prog]; the
          kernel still executes (once) so outputs are produced *)

type cfg = { warmup : int; repeats : int; clock : clock }

(** One measurement: order statistics over the timed samples plus the
    kernel's compile-time coverage counters. *)
type wall = {
  median_ms : float;
  mean_ms : float;
  min_ms : float;
  max_ms : float;
  samples : float array;  (** per-repeat milliseconds, in run order *)
  macro_groups : int;
  generic_groups : int;
}

val measure : ?cfg:cfg -> Program.t -> bufs:float array array -> wall
(** Compile [prog] against [bufs] and measure it.  Non-input buffers are
    re-zeroed (untimed) before every run, warmup or timed, so every run
    starts from the same state: lowered programs initialize what they
    reduce into, but a hand-built nest without an init store would
    accumulate into the previous run's outputs.  After [measure] returns,
    [bufs] holds the outputs of the final run, element-wise equal to a
    single interpreter execution.
    Raises [Invalid_argument] if [repeats < 1] or [warmup < 0], or on a
    buffer shape mismatch (see {!Kernel.compile}). *)

val spread : wall -> float
(** Relative spread [(max - min) / median] of the timed samples: the
    noise gate tests use to decide whether a wall-clock comparison is
    trustworthy.  0 under a {!Virtual} clock. *)
