(** End-to-end graph tuning (Sections 6 and 7.2): per-complex-operator
    tuning with task deduplication and budget allocation by the task
    {!Scheduler}, then propagation (Algorithm 1), compilation and
    execution. *)

module Schedule = Alt_ir.Schedule
module Machine = Alt_machine.Machine
module Graph = Alt_graph.Graph
module Propagate = Alt_graph.Propagate
module Compile = Alt_graph.Compile

(** Systems of the end-to-end benchmark (Fig. 10). *)
type gsystem =
  | Gvendor
  | Gautotvm
  | Gansor
  | Galt
  | Galt_ol (** no joint stage; fixed channels-last layouts; fusion on *)
  | Galt_wp (** joint tuning, adjacent-only propagation; fusion lost *)

val gsystems : (string * gsystem) list
(** Every system with its name, the one the CLI accepts. *)

val gsystem_name : gsystem -> string

type tuned_graph = {
  system : gsystem;
  compiled : Compile.compiled;
  choices : (string * Propagate.choice) list;
  schedules : (string * Schedule.t) list;
  tasks_tuned : int; (** unique tuning tasks after deduplication *)
  measurements : int;
  per_task : (string * Tuner.result) list;
}

val tune_graph :
  ?seed:int -> ?jobs:int -> ?levels:int -> ?max_points:int ->
  ?faults:Alt_faults.Fault.t -> ?retries:int ->
  ?backend:Alt_machine.Runtime.backend -> ?scheduler:Scheduler.policy ->
  system:gsystem -> machine:Machine.t -> budget:int ->
  Graph.t -> tuned_graph
(** {!tune_models} on the one graph with policy [scheduler] (default
    [Static]: the unique tasks are tuned one after another in
    topological first-seen order, each on a fixed [max 8 (budget /
    tasks)] slice of the budget).  [jobs] bounds the domains used for
    concurrent measurements; results are identical for every value (see
    {!Tuner}).  [faults] and [retries] configure each per-task
    measurement pipeline (see {!Measure}), [backend] the measuring
    device (see {!Measure.make_task}). *)

val tune_models :
  ?seed:int -> ?jobs:int -> ?levels:int -> ?max_points:int ->
  ?faults:Alt_faults.Fault.t -> ?retries:int ->
  ?backend:Alt_machine.Runtime.backend -> ?policy:Scheduler.policy ->
  system:gsystem -> machine:Machine.t -> budget:int ->
  (string * Graph.t) list -> Scheduler.report * (string * tuned_graph) list
(** Tune a zoo of named graphs under one global [budget] (DESIGN.md §14):
    tasks are deduplicated across all models ({!Taskset.of_graphs}), the
    scheduler ([policy], default [Gradient]) allocates trials round by
    round, and every model is assembled from the shared task results. *)

val assemble :
  system:gsystem -> results:(string * Tuner.result) list -> Graph.t ->
  tuned_graph
(** Assemble a graph from per-task results keyed by {!Taskset.signature}:
    per-node layout/schedule selection, propagation, compilation.
    [results] may cover more tasks than the graph uses; raises
    [Invalid_argument] if one of the graph's tasks is missing. *)

val run :
  ?max_points:int -> tuned_graph -> machine:Machine.t -> Compile.exec_result
(** Execute the tuned graph on fixed random feeds, returning the simulated
    end-to-end latency and per-stage profiles. *)
