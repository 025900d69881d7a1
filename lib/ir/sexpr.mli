(** Scalar expressions forming operator bodies.

    Tensor reads refer to input tensors by name with {e logical} index
    expressions; lowering rewrites them into physical accesses through each
    tensor's layout.  [Select] provides guarded evaluation (only the taken
    branch is evaluated), used by padding operators and conversion
    programs. *)

module Ixexpr = Alt_tensor.Ixexpr
module Var = Alt_tensor.Var

type binop = Badd | Bsub | Bmul | Bdiv | Bmax | Bmin
type unop = Urelu | Uneg | Uexp | Utanh | Usqrt | Urecip
type cmp = Clt | Cle | Cgt | Cge | Ceq

type cond =
  | Cmp of cmp * Ixexpr.t * Ixexpr.t
  | And of cond * cond
  | Or of cond * cond

and t =
  | Load of string * Ixexpr.t array
  | Fconst of float
  | Bin of binop * t * t
  | Un of unop * t
  | Select of cond * t * t

(** {1 Constructors} *)

val load : string -> Ixexpr.t array -> t
val fconst : float -> t
val ( +. ) : t -> t -> t
val ( -. ) : t -> t -> t
val ( *. ) : t -> t -> t
val ( /. ) : t -> t -> t
val relu : t -> t
val select : cond -> t -> t -> t

(** {1 Evaluation} *)

val apply_binop : binop -> float -> float -> float
val apply_unop : unop -> float -> float
val eval_cond : (Var.t -> int) -> cond -> bool

val eval :
  lookup:(string -> Ixexpr.t array -> (Var.t -> int) -> float) ->
  (Var.t -> int) -> t -> float
(** [eval ~lookup env e] with [lookup name idx env] resolving tensor
    reads. *)

(** {1 Analysis and rewriting} *)

val arith_ops : t -> int
(** Arithmetic operations per evaluation (Select counts its worse branch). *)

val loads : t -> (string * Ixexpr.t array) list

val map_loads : (string -> Ixexpr.t array -> t) -> t -> t
(** Replace every load (e.g. to retarget a tensor, as [store_at] does). *)

val map_cond_ix : (Ixexpr.t -> Ixexpr.t) -> cond -> cond

(** {1 Pretty-printing} *)

val pp_binop : binop Fmt.t
val pp_unop : unop Fmt.t
val pp_cond : cond Fmt.t
val pp : t Fmt.t
