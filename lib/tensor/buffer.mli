(** Logical tensor data for tests and benchmarks: deterministic
    contents and element-wise comparison of flat [float array]s. *)

val random : ?seed:int -> Shape.t -> float array
(** Deterministic pseudo-random logical data in [-1, 1). *)

val iota : Shape.t -> float array
(** 0., 1., 2., ... — useful in layout round-trip tests. *)

val max_abs_diff : float array -> float array -> float
val allclose : ?tol:float -> float array -> float array -> bool
