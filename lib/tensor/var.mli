(** Loop / index variables with globally unique identifiers. *)

type t = { id : int; name : string }

val fresh : string -> t
(** [fresh name] returns a variable with a globally unique [id]. *)

val id : t -> int
val name : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
