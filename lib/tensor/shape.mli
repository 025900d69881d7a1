(** Tensor shapes (dimension extents) and small integer utilities. *)

type t = int array

val rank : t -> int
val num_elements : t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
val to_string : t -> string

val validate : t -> unit
(** Raises [Invalid_argument] if any extent is non-positive. *)

val strides : t -> int array
(** Row-major strides. *)

val offset_of_index : t -> int array -> int
(** Linear row-major offset; bounds-checked. *)

val index_of_offset : t -> int -> int array
(** Inverse of [offset_of_index]. *)

val divisors : int -> int list
(** Divisors in increasing order. *)

val round_to_divisor : int -> int -> int
(** [round_to_divisor n x] is the divisor of [n] nearest to [x] (the paper's
    rounding function [R] used to map a continuous action to a split factor). *)

val cdiv : int -> int -> int
(** Ceiling division. *)

val prod_range : int array -> int -> int -> int
(** Product of [a.(lo..hi)] inclusive. *)
