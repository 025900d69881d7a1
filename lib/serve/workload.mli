(** Workload specifications: the wire-level description of a tuning
    request, its canonical JSON, and the two digests the daemon keys
    everything by — the {!session_key} (full trajectory identity) and
    the coarser {!context_key} (measurement-result identity, governing
    which sessions may share the measurement store). *)

module Opdef = Alt_ir.Opdef
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Machine = Alt_machine.Machine
module Json = Alt_obs.Json

type op_spec = {
  kind : string;  (** one of {!op_kinds} *)
  batch : int;
  channels : int;
  out_channels : int;
  spatial : int;
  kernel : int;
  stride : int;
}

val default_op : op_spec

val string_field : Json.t -> string -> string -> string

val op_kinds : string list
(** Every operator kind {!op_of_spec} builds, in help order: c2d, grp,
    dep, dil, c1d, c3d, gmm, t2d. *)

val op_of_spec : op_spec -> Opdef.t
(** Construct the operator (raises [Failure] on an unknown kind — use
    {!op_spec_of_json} for validated wire input). *)

val op_spec_to_json : op_spec -> Json.t
val op_spec_of_json : Json.t -> (op_spec, string) result
(** Missing fields take {!default_op} values; the spec is validated by
    constructing the operator once. *)

type tune_spec = {
  op : op_spec;
  machine : string;
  system : string;
  budget : int;
  seed : int;  (** tuner seed *)
  max_points : int;
  data_seed : int;  (** input-data seed *)
  fault_rate : float;
  fault_seed : int;
  retries : int;
  watchdog_points : int option;
}

val default_tune_spec : tune_spec
val machine_of_name : string -> Machine.t option

val tune_spec_to_json : tune_spec -> Json.t
(** Canonical: fixed field order, shortest-round-trip floats — rendering
    this is the session's canonical serialization. *)

val tune_spec_of_json : Json.t -> (tune_spec, string) result
(** Missing fields take {!default_tune_spec} values; machine, system and
    numeric ranges are validated. *)

val session_key : tune_spec -> string
(** Digest of the canonical spec: requests with equal keys are one
    session and share one tuning run (and its checkpoint journal). *)

val context_key : tune_spec -> string
(** Digest of everything that determines the result of one measurement
    (operator, machine, simulation budget, input data, fault injector,
    retries, watchdog) — and nothing that doesn't (tuner seed, system,
    tuning budget).  Sessions with equal context keys may share
    measurement results and quarantine decisions: a measurement is a
    pure function of (context, canonical program). *)

val task_of_spec : ?shared:Measure.shared_store -> tune_spec -> Measure.task
(** The measurement task a spec describes.  Raises [Invalid_argument] on
    an unvalidated spec (unknown machine). *)

val system_of_spec : tune_spec -> Tuner.system
