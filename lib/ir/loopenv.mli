(** The access and leaf compiler shared by the simulator and the exec
    backend's kernels.

    A lowered program runs over a dense integer environment in which every
    loop variable owns one slot.  Access offsets compile to a dot product
    [c0 + Σ kⱼ·env.(sⱼ)] read from {!Alt_tensor.Ixexpr.affine}; only
    non-affine residues (div/mod/min/max, products of variables) keep a
    closure tree.  Compiled values equal {!Alt_tensor.Ixexpr.eval} of the
    source expressions under every environment.  Batched innermost loops
    share their hoisted bases, chain walker and leaf values too. *)

module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr

type t
(** Slot assignment of loop variables. *)

val create : unit -> t

val var_slot : t -> Var.t -> int
(** The environment slot of a variable, assigned on first use. *)

val alloc_env : t -> int array
(** A zeroed environment covering every slot assigned so far; allocate it
    after compiling.  [t] keeps the last one for the {!leaf_group} values
    that read it. *)

(** A compiled integer expression [k0 + Σⱼ coeffs.(j)·env.(slots.(j))],
    plus [resid env] when the source has non-affine atoms. *)
type offset = private {
  k0 : int;
  slots : int array;  (** distinct slots, nonzero coefficients *)
  coeffs : int array;
  resid : (int array -> int) option;  (** [None] iff fully affine *)
  resid_slots : int array;  (** the slots [resid] reads *)
}

val eval : offset -> int array -> int

val slot_stride : offset -> int -> int option
(** Change of the offset per unit step of the variable in the given slot;
    [None] when the residue reads it.  For a compiled access this is
    {!affine_stride} of the slot's variable, without renormalizing the
    index expressions. *)

val compile_offset : t -> Program.slot array -> Program.access -> offset
(** The element offset [Σᵢ idxᵢ·strideᵢ] of an access into its slot's
    physical layout. *)

val compile_cond : t -> Sexpr.cond -> int array -> bool

(** {1 Hoisted bases and perfect chains}

    The simulator's fast engine and the exec kernels both batch an
    innermost loop whose accesses are affine in its variable, and run it
    together with its {e chain}: loops directly above it, each the only
    statement of the next one out, whose variables every access of the
    batch is affine in.  They share the walk below, which evaluates each
    access offset once per chain entry and then strength-reduces it. *)

(** One distinct access of a batched innermost loop. *)
type base = private {
  b_off : offset;
  b_stride : int;  (** offset change per step of the innermost variable *)
  mutable b_at : int;
      (** the offset with the innermost variable at 0 and the chain's
          variables at their current values *)
}

val base : offset -> int -> base option
(** [base off vslot]: a hoisted base for the innermost loop whose
    variable owns [vslot], or [None] when the offset's residue reads
    that variable (it is not affine in it). *)

(** One loop of a chain: its slot and extent, and the bases that move
    with its variable. *)
type level = private {
  lv_slot : int;
  lv_extent : int;
  lv_bases : base array;
  lv_strides : int array;
}

val level_of : t -> base array -> Var.t -> int -> level option
(** [level_of vm bases v extent]: the chain level of a loop over [v]
    running [extent] iterations (the simulator passes its sampled
    extents), or [None] when some base's residue reads [v] — a loop
    that reaches an access through div/mod ends the chain. *)

val chain_points : level array -> int
(** Innermost runs per chain entry: the product of the extents. *)

val chain :
  vslot:int -> base array -> level array -> (int array -> unit) ->
  int array -> unit
(** [chain ~vslot bases levels inner env] runs [inner env] once per
    point of [levels] (outermost first), in the order of the loops they
    stand for.  On entry it sets the innermost variable and every chain
    variable to 0 and evaluates each of [bases]; each level then writes
    its variable to [env] (select conditions read it), advances the
    bases that move with it by their strides after every iteration and
    rewinds them when its loop ends.  Integer offsets are exact, so
    [inner] always sees the [b_at] a fresh evaluation would give. *)

(** {1 Leaf values}

    The value half of a batched leaf group — an innermost loop whose body
    is Store/Reduce statements — compiled once for both executors: one
    hoisted base per distinct access, an evaluator indexed by the
    innermost iteration, and whole-loop runners for constant fills, for
    the multiply-accumulate shape every conv/matmul reduction lowers to
    (a scalar accumulator stays in a register over a 4x unrolled loop
    with one sequential accumulation chain), for guarded stores, and for
    everything else.  A guarded store — a single [Store (a, Pselect (c,
    e1, e2))] whose [c] is a conjunction of [Cge]/[Clt] comparisons
    affine in the innermost variable, the zero-fill guard of pads and of
    conversions into padded or unfolded layouts — runs as three ranges
    of the loop, [e2] for [x < lo], [e1] for [lo <= x < hi] and [e2] for
    [x >= hi], with [lo] and [hi] computed once per run; every other
    select is decided per element.  Every combine function, evaluation
    order and accumulation chain is the scalar interpreter's, and each
    element evaluates the branch the interpreter would, so outputs are
    bit-identical to it. *)

type leaf_group = private {
  lg_bases : base array;  (** one per distinct access, for {!chain} *)
  lg_base : Program.access -> base;
      (** the base of an access of the group; [Not_found] for others *)
  lg_inner : int -> int array -> unit;
      (** [lg_inner n]: the innermost loop of [n] iterations, the [inner]
          of {!chain}.  Several leaves interleave per iteration, since a
          later one may read what an earlier one wrote. *)
  lg_fold : (level -> int -> int array -> unit) option;
      (** for a group of one multiply-accumulate leaf: [fold lv n] runs
          the innermost loop of [n] iterations once per iteration of the
          chain level [lv], inside the leaf's runner (the same loops
          [lg_inner] runs once), moving each operand by its stride in
          [lv]'s variable.  It is the [inner] of a {!chain} over the
          levels above [lv], and it never writes [lv]'s variable: the
          caller zeroes that slot before each chain entry, since the
          chain evaluates its bases with every variable below it at 0.
          [None] for every other group. *)
}

val leaf_group :
  t -> Program.slot array -> float array array -> Var.t -> Program.stmt list ->
  leaf_group option
(** [leaf_group vm slots bufs v leaves]: the values of the leaf statements
    under the innermost loop over [v], reading and writing [bufs]; [None]
    when some access is not affine in [v] or a statement is not a
    Store/Reduce.  Loads under a select and several Reduce leaves are
    fine.  Select conditions read the environment {!alloc_env} returned
    last, so allocate it before running. *)

val affine_stride : Program.slot array -> Program.access -> Var.t -> int option
(** Elements the access's offset moves per unit step of the variable;
    [None] when the variable occurs under a non-affine atom. *)
