(** Layout propagation (Algorithm 1) and compilation planning.

    Given layout choices for complex operators, decides the storage layout
    of every tensor, which elementwise producers emit a requested layout
    directly (Fig. 5b), which consumer chains share the producer's layout
    so fusion stays legal (Fig. 7), and where conversion operators are
    inserted. *)

module Layout = Alt_tensor.Layout

(** Propagation policy, realizing the paper's ablations:
    [Full] = ALT; [Adjacent] = ALT-WP (adjacent conversion elimination
    only, no fusion-enabling sharing); [Off] = conversions everywhere. *)
type mode = Full | Adjacent | Off

type choice = {
  out_layout : Layout.t; (** must be invertible *)
  in_layouts : (string * Layout.t) list;
}

type stage =
  | Convert of { tensor : string; src : Layout.t; dst : Layout.t }
  | Complex_stage of {
      node : Graph.node;
      out_layout : Layout.t;
      in_layouts : (string * Layout.t) list;
      fused : Graph.node list;
    }
  | Simple_stage of { node : Graph.node; out_layout : Layout.t }

type plan = {
  stages : stage list; (** dependency-correct execution order *)
  storage : (string * Layout.t) list;
  conversions : int;
  fused_ops : int;
}

val plan : ?mode:mode -> Graph.t -> choices:(string * choice) list -> plan
(** [choices] maps complex-operator names to their tuned layouts. *)
