(** Concrete tensor storage: a float array row-major over a layout's
    physical shape. *)

type t = { layout : Layout.t; data : float array }

val create : Layout.t -> t
(** Zero-initialized physical buffer. *)

val layout : t -> Layout.t
val data : t -> float array
val logical_shape : t -> Shape.t
val physical_shape : t -> Shape.t

val random : ?seed:int -> Shape.t -> float array
(** Deterministic pseudo-random logical data in [-1, 1). *)

val iota : Shape.t -> float array
(** 0., 1., 2., ... — useful in layout round-trip tests. *)

val max_abs_diff : float array -> float array -> float
val allclose : ?tol:float -> float array -> float array -> bool
