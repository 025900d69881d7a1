(** Layout tuning templates (Section 5.1): a handful of tunable split
    parameters per complex operator, with the reorder fixed by the paper's
    analysis and the input tensor's unfolded dimensions tied to the output
    tiling.  Also provides the fixed layout choices used by baselines and
    the motivation experiments. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Opdef = Alt_ir.Opdef
module Propagate = Alt_graph.Propagate

(** {1 Templates} *)

type knob = { kname : string; extent : int }

type t = {
  op : Opdef.t;
  knobs : knob array;
  decode : float array -> Propagate.choice;
      (** actions in (0,1), one per knob; factors via F = R(D*a) *)
}

exception Unsupported

val for_op : ?levels:int -> Opdef.t -> t option
(** The template of an operator's kind; [None] for simple operators.
    C2D family: (spatial tiles, o_t, i_t, i'_t, o'_t), with the input
    unfolded by tiles derived from the output tiling; [levels = 2] adds
    a second tiling level (Fig. 13).  GMM/BMM: (m_t, k_t, n_t). *)

(** {1 Fixed layout choices} *)

val trivial_choice : Opdef.t -> Propagate.choice
(** Identity layouts (NOHW / KN). *)

val channels_last_choice : Opdef.t -> Propagate.choice
(** NHWO / NDHWO / NWO family, HWIO-style weights. *)

val hwon_choice : Opdef.t -> Propagate.choice
(** Spatial-first DSP layout of Fig. 1. *)

val blocked_choice : Opdef.t -> block:int -> Propagate.choice
(** NCHWc-style fixed channel blocking (NeoCPU / vendor layouts). *)

val gmm_kn : Opdef.t -> Propagate.choice
val gmm_nk : Opdef.t -> Propagate.choice
val gmm_nkn : ?block:int -> Opdef.t -> Propagate.choice

val layout_zoo : Opdef.t -> Propagate.choice list
(** Deterministic affine layout variants (reorder/pad only — constant
    loop-nest structure) for cross-device rank validation: GMM gets the
    KN/NK family of Fig. 1 with padded variants, convolutions the
    NOHW/NHWO x IHW/HWI grid.  Simple operators get the single trivial
    choice. *)

(** {1 Named presets} *)

val presets : string list
(** The layout presets [alt show-op] and the service's compile request
    accept: default, channels-last, blocked (blocks of twice the
    machine's SIMD lanes) and alt (the template at every knob 0.4, or
    the identity for simple operators). *)

val preset :
  Alt_machine.Machine.t -> Opdef.t -> string ->
  (Propagate.choice * Alt_ir.Schedule.t) option
(** The named preset's layout choice for the operator, with the
    vectorized default schedule of its output rank; [None] for a name
    not in {!presets}. *)
