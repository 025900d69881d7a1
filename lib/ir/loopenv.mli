(** The access compiler shared by the simulator's interpreter and the exec
    backend's kernels.

    A lowered program runs over a dense integer environment in which every
    loop variable owns one slot.  Access offsets compile to a dot product
    [c0 + Σ kⱼ·env.(sⱼ)] read from {!Alt_tensor.Ixexpr.affine}; only
    non-affine residues (div/mod/min/max, products of variables) keep a
    closure tree.  Compiled values equal {!Alt_tensor.Ixexpr.eval} of the
    source expressions under every environment. *)

module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr

type t
(** Slot assignment of loop variables. *)

val create : unit -> t

val var_slot : t -> Var.t -> int
(** The environment slot of a variable, assigned on first use. *)

val alloc_env : t -> int array
(** A zeroed environment covering every slot assigned so far; allocate it
    after compiling. *)

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

val affine_stride : Program.slot array -> Program.access -> Var.t -> int option
(** Elements the access's offset moves per unit step of the variable;
    [None] when the variable occurs under a non-affine atom. *)
