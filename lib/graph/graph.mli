(** Computational graphs: operators as nodes, tensors as edges.

    Tensors are unique names; each is a graph input, a parameter (constant,
    packable offline), or the output of exactly one node.  Nodes are kept
    in topological order by construction. *)

module Shape = Alt_tensor.Shape
module Opdef = Alt_ir.Opdef

type node = { nid : int; op : Opdef.t }

type t = {
  inputs : (string * Shape.t) list;
  params : (string * Shape.t) list;
  nodes : node array; (* topological *)
  outputs : string list;
}

(** {1 Builder} *)

type builder

val builder : unit -> builder
val input : builder -> string -> Shape.t -> string
val param : builder -> string -> Shape.t -> string

val add : builder -> Opdef.t -> string
(** Adds a node; validates input names/shapes; returns the output name. *)

val finish : builder -> outputs:string list -> t

(** {1 Queries} *)

val producer : t -> string -> node option
val consumers : t -> string -> node list
val is_input : t -> string -> bool
val is_param : t -> string -> bool
val tensor_shape : t -> string -> Shape.t
val complex_nodes : t -> node list

(** {1 Execution} *)

val reference_execute :
  t -> feeds:(string * float array) list -> (string * float array) list
(** Naive interpretation of the whole graph over logical buffers; the
    end-to-end correctness oracle. *)

val random_feeds : ?seed:int -> t -> (string * float array) list
(** Deterministic random data for all inputs and parameters. *)

val pp : t Fmt.t
