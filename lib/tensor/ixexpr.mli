(** Symbolic integer index expressions with range-aware simplification.

    Division is floor division; modulo returns a value in [0, divisor).
    Divisors are expected to be positive constants. *)

type t =
  | Const of int
  | Var of Var.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

type bounds = Var.t -> (int * int) option
(** Inclusive variable ranges used by the simplifier; [None] = unknown. *)

val no_bounds : bounds

val fdiv : int -> int -> int
(** Floor division (positive divisor). *)

val fmod : int -> int -> int
(** Modulo matching [fdiv]; result in [0, divisor). *)

(** {1 Smart constructors (constant folding)} *)

val const : int -> t
val var : Var.t -> t
val zero : t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mod_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val sum : t list -> t

(** {1 Traversals and evaluation} *)

val vars : t -> Var.Set.t
val subst : (Var.t -> t option) -> t -> t
val eval : (Var.t -> int) -> t -> int
val pp : t Fmt.t
val to_string : t -> string

(** {1 Simplification} *)

val simplify : ?bounds:bounds -> t -> t
(** Normalizes to a sorted linear combination over div/mod atoms, using
    interval analysis to discharge divisions and modulos; e.g.
    [(ho*ht + hi) / ht] simplifies to [ho] when [0 <= hi < ht]. *)

val affine : t -> int * (Var.t * int) list * t list
(** [affine e] reads the normal form of [e] as [(k, terms, residue)] with
    [e = k + Σ c·v + Σ r] over [(v, c)] in [terms] and [r] in [residue]
    under every environment: [terms] lists distinct variables with
    nonzero coefficients, and each residue expression is one non-affine
    atom (div/mod/min/max or a product of variables) already scaled by
    its coefficient. *)

val equal : ?bounds:bounds -> t -> t -> bool
(** Structural equality of normal forms. *)

val range : ?bounds:bounds -> t -> (int * int) option
(** Inclusive value range, if derivable. *)

val coeff_of : ?bounds:bounds -> t -> Var.t -> int option
(** Coefficient of a variable when the expression is affine in it at top
    level ([None] if the variable occurs under div/mod/min/max or a
    non-affine residue).  Recognizes sliding-window patterns [V*i + r]. *)

val drop_var : ?bounds:bounds -> t -> Var.t -> t option
(** [drop_var e v] is [e - coeff*v] simplified, when [coeff_of] succeeds. *)
