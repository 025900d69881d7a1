(** Compiled macro-kernels: the lowering half of the exec backend
    (DESIGN.md §12).

    [compile] turns a lowered {!Program.t} into a closure that executes
    the loop nest for real over flat [float array] buffers — no cache
    model, no counters, just the arithmetic.  Innermost loops whose
    leaves access buffers affinely in the loop variable become
    macro-kernels, compiled by the leaf compiler the simulator's fast
    engine shares ({!Alt_ir.Loopenv.leaf_group}): tight array loops over
    hoisted base offsets, with the multiply-accumulate shape every
    conv/matmul reduction lowers to specialized (invariant operands
    hoisted, scalar accumulators kept in a register, innermost
    iterations unrolled), and a store guarded by the bounds test of a
    pad or a padded/unfolded conversion runs as three ranges computed
    once per run (the else-branch below and above the range where the
    guard holds, the then-branch inside it, each a fill or a copy when
    it is a constant or a plain load).  Everything else falls back to a generic
    compiled interpretation of the same nest.

    A macro-kernel runs with its chain: the longest run of loops directly
    enclosing it, each the only statement of the next one out, whose
    variables every access of the group is affine in.  The chain walker,
    {!Alt_ir.Loopenv.chain}, which the simulator's fast engine shares,
    evaluates each hoisted base once per chain entry, then moves it by
    precomputed per-loop strides, rewinding after each loop ends; it
    still writes every chain variable to the loop environment for the
    select conditions that read it.  A group of one multiply-accumulate
    leaf hands the chain's innermost level to the leaf's own runner
    ({!Alt_ir.Loopenv.leaf_group}'s [lg_fold]), which moves its operands
    by that level's strides; the chain walks the levels above, and the
    folded level's variable is zeroed before each chain entry, since the
    chain evaluates its bases with every variable below it at 0 and
    sibling groups reuse loop variables.  A chain visits the same points
    in the same order as the loops it replaces.

    The value semantics mirror the scalar interpreter in
    [lib/machine/profiler.ml] operation for operation — same combine
    functions, same evaluation order, same accumulation chains — so
    outputs are bit-identical to a simulator run of the same program
    (pinned by test/test_exec.ml, whose oracle is that interpreter, not
    the shared leaf compiler).

    [Parallel] loops run serially, like every other loop: the wall
    clock of a parallel-marked nest is its serial time, and the
    simulator's machine model is what prices [Schedule.parallel]. *)

module Program = Alt_ir.Program

(** Coverage counters, filled at compile and execution time.  A "group"
    is an innermost loop with leaf-only body — the unit the macro
    compiler targets. *)
type stats = {
  mutable macro_groups : int;  (** groups compiled to macro-kernels *)
  mutable folded_groups : int;
      (** macro groups whose chain's innermost level runs inside the
          multiply-accumulate runner *)
  mutable generic_groups : int;  (** groups that fell back *)
  mutable macro_runs : int;  (** innermost-loop executions, macro path *)
  mutable generic_runs : int;  (** innermost-loop executions, fallback *)
}

type t = private {
  prog : Program.t;
  bufs : float array array;
  run : unit -> unit;  (** one full execution of the program *)
  stats : stats;
}

val compile : Program.t -> bufs:float array array -> t
(** Compile the program against per-slot physical buffers (see
    [Runtime.alloc_bufs]; lengths are validated).  The returned closure
    may be invoked repeatedly.  Lowered programs initialize every
    element they reduce into, so a re-run computes the same result from
    any buffer state; only a hand-built nest without an init store
    accumulates into what the output buffers hold, and then needs
    {!reset_non_inputs} between runs. *)

val reset_non_inputs : t -> unit
(** Zero every non-[Input] buffer, restoring the post-[alloc_bufs]
    state so [run] is repeatable. *)

val pack : Alt_tensor.Layout.t -> float array -> float array
(** [pack l src] materializes [l]'s physical buffer from logical
    row-major [src] by compiling and running the conversion operator
    from the identity layout into [l] ({!Alt_ir.Lower.conversion}).
    Returns a fresh buffer with every physical element written: holes
    (padding, unfold overhang) are zero, overlapped tiles are
    duplicated.  Bit-identical to {!Alt_tensor.Layout.pack}, the
    reference it is pinned to by test/test_exec.ml.  Raises
    {!Alt_tensor.Layout.Layout_error} when [src] is not one element per
    logical index, exactly as [Layout.pack] does. *)
