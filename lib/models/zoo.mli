(** Model zoo: the networks of the paper's end-to-end evaluation, scaled
    for the trace-driven simulator (structures preserved; see DESIGN.md). *)

module Graph = Alt_graph.Graph

type spec = { name : string; graph : Graph.t }

val resnet18 :
  ?batch:int -> ?size:int -> ?base:int -> ?classes:int -> unit -> spec
(** Residual CNN: stem + 4 stages of basic blocks + global pool + FC. *)

val mobilenet_v2 : ?batch:int -> ?size:int -> ?classes:int -> unit -> spec
(** Inverted-residual CNN with depthwise convolutions. *)

val bert_base : ?batch:int -> unit -> spec
val bert_tiny : ?batch:int -> unit -> spec

val resnet3d_18 :
  ?batch:int -> ?size:int -> ?depth:int -> ?base:int -> ?classes:int ->
  unit -> spec
(** 3-D residual CNN for video. *)
