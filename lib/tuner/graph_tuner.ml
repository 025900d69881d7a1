(* End-to-end graph tuning (paper Sections 6 and 7.2).

   The joint stage tunes each complex operator in topological order;
   identical tasks (same operator signature) are deduplicated and share
   one tuning run, and the total measurement budget is split across the
   unique tasks.  Each task is tuned *together with* the elementwise chain
   that will be fused after it, so fusion conflicts are visible to the
   tuner.  The resulting per-operator layout choices are propagated
   (Algorithm 1), conversions are inserted where the constraints demand,
   and the compiled graph is executed for the end-to-end latency.

   Task extraction/dedup lives in Taskset and trial allocation in
   Scheduler: [tune_models] runs a whole zoo of graphs under one global
   budget with any policy (DESIGN.md §14), and [tune_graph] is
   [tune_models] on one graph, by default with the fixed per-task split
   ([Scheduler.Static]). *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Machine = Alt_machine.Machine
module Graph = Alt_graph.Graph
module Propagate = Alt_graph.Propagate
module Compile = Alt_graph.Compile

type gsystem =
  | Gvendor
  | Gautotvm
  | Gansor
  | Galt
  | Galt_ol (* no joint stage; fixed channels-last layouts; fusion on *)
  | Galt_wp (* joint tuning but only adjacent propagation; fusion lost *)

let gsystems =
  [
    ("vendor", Gvendor);
    ("autotvm", Gautotvm);
    ("ansor", Gansor);
    ("alt", Galt);
    ("alt-ol", Galt_ol);
    ("alt-wp", Galt_wp);
  ]

let gsystem_name s = fst (List.find (fun (_, s') -> s' = s) gsystems)

let propagate_mode = function
  | Galt_wp -> Propagate.Adjacent
  | Gvendor | Gautotvm | Gansor | Galt | Galt_ol -> Propagate.Full

type tuned_graph = {
  system : gsystem;
  compiled : Compile.compiled;
  choices : (string * Propagate.choice) list;
  schedules : (string * Schedule.t) list;
  tasks_tuned : int;
  measurements : int;
  per_task : (string * Tuner.result) list;
}

(* Assemble a graph from per-task tuning results keyed by Taskset
   signature: pick each complex node's layout/schedule from its task's
   best, propagate, compile.  [results] may cover more tasks than [g]
   uses (the zoo's full task set); only the used ones are reported. *)
let assemble ~(system : gsystem) ~(results : (string * Tuner.result) list)
    (g : Graph.t) : tuned_graph =
  let mode = propagate_mode system in
  let tuned : (string, Tuner.result) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s, r) -> if not (Hashtbl.mem tuned s) then Hashtbl.add tuned s r)
    results;
  let used = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let choices = ref [] and schedules = ref [] in
  List.iter
    (fun (n : Graph.node) ->
      let chain = Taskset.fusable_chain g n in
      let s =
        Taskset.signature n.Graph.op (List.map (fun c -> c.Graph.op) chain)
      in
      match Hashtbl.find_opt tuned s with
      | None ->
          invalid_arg
            (Fmt.str "Graph_tuner.assemble: no tuning result for task %s" s)
      | Some r ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.replace seen s ();
            used := s :: !used
          end;
          choices := (n.Graph.op.Opdef.name, r.Tuner.best_choice) :: !choices;
          schedules :=
            (n.Graph.op.Opdef.name, r.Tuner.best_schedule) :: !schedules)
    (Graph.complex_nodes g);
  let sigs = List.rev !used in
  let plan = Propagate.plan ~mode g ~choices:!choices in
  let compiled = Compile.compile ~schedules:!schedules g plan in
  {
    system;
    compiled;
    choices = !choices;
    schedules = !schedules;
    tasks_tuned = List.length sigs;
    measurements =
      List.fold_left
        (fun a s -> a + (Hashtbl.find tuned s).Tuner.spent)
        0 sigs;
    per_task = List.map (fun s -> (s, Hashtbl.find tuned s)) sigs;
  }

(* The per-system tuner factory handed to the scheduler.  The phase split
   is derived from [share] (the static per-task slice), so under the
   Static policy every task runs on exactly its fixed slice; the gradient
   surplus [total - share] extends the final loop-only phase, where extra
   trials refine the already-chosen layout. *)
let tuner_factory ~seed ~levels ~(machine : Machine.t) ~(system : gsystem) :
    Scheduler.make_tuner =
 fun ~pool ~share ~total ~transfer ~stop ~on_progress task ->
  let op = task.Measure.op in
  let blocked =
    lazy [ Templates.blocked_choice op ~block:(2 * machine.Machine.lanes) ]
  in
  match system with
  | Gvendor -> Tuner.tune_vendor ~pool ~stop ~on_progress task
  | Gautotvm ->
      (* NeoCPU-style: fixed blocked layout, restricted loop space *)
      Tuner.tune_loop_only ~seed ~pool ~stop ~on_progress ?transfer
        ~explorer:Tuner.Restricted ~budget:total
        ~layouts:(Lazy.force blocked) task
  | Gansor ->
      Tuner.tune_loop_only ~seed ~pool ~stop ~on_progress ?transfer
        ~explorer:Tuner.Guided ~budget:total
        ~layouts:(Lazy.force blocked) task
  | Galt_ol ->
      Tuner.tune_loop_only ~seed ~pool ~stop ~on_progress ?transfer
        ~explorer:Tuner.Guided ~budget:total
        ~layouts:[ Templates.channels_last_choice op ]
        task
  | Galt | Galt_wp ->
      Tuner.tune_alt ~seed ~pool ~levels ~stop ~on_progress ?transfer
        ~joint_budget:(share * 4 / 10)
        ~loop_budget:((share * 6 / 10) + (total - share))
        task

(* Tune a whole zoo of named graphs under one global budget, then
   assemble every model from the shared task results. *)
let tune_models ?(seed = 0) ?(jobs = 1) ?(levels = 1) ?(max_points = 30_000)
    ?faults ?retries ?backend ?(policy = Scheduler.Gradient)
    ~(system : gsystem) ~(machine : Machine.t) ~(budget : int)
    (graphs : (string * Graph.t) list) :
    Scheduler.report * (string * tuned_graph) list =
  let mode = propagate_mode system in
  let make_task (e : Taskset.entry) =
    let fused_ops =
      match mode with
      | Propagate.Adjacent | Propagate.Off -> []
      | Propagate.Full ->
          List.map (fun (c : Graph.node) -> c.Graph.op) e.Taskset.chain
    in
    Measure.make_task ~fused:fused_ops ~max_points ?faults ?retries ?backend
      ~machine e.Taskset.node.Graph.op
  in
  let make_tuner = tuner_factory ~seed ~levels ~machine ~system in
  let report =
    Scheduler.tune_models ~jobs ~policy ~make_task ~make_tuner ~budget graphs
  in
  let results =
    List.map
      (fun (t : Scheduler.task_report) ->
        (t.Scheduler.signature, t.Scheduler.result))
      report.Scheduler.tasks
  in
  (report, List.map (fun (name, g) -> (name, assemble ~system ~results g)) graphs)

let tune_graph ?seed ?jobs ?levels ?max_points ?faults ?retries ?backend
    ?(scheduler = Scheduler.Static) ~(system : gsystem) ~(machine : Machine.t)
    ~(budget : int) (g : Graph.t) : tuned_graph =
  let _, tuned =
    tune_models ?seed ?jobs ?levels ?max_points ?faults ?retries ?backend
      ~policy:scheduler ~system ~machine ~budget [ ("model", g) ]
  in
  snd (List.hd tuned)

(* Run the tuned graph end to end on the machine model. *)
let run ?(max_points = 60_000) (tg : tuned_graph) ~(machine : Machine.t) :
    Compile.exec_result =
  let feeds = Graph.random_feeds ~seed:5 tg.compiled.Compile.graph in
  Compile.execute ~machine ~max_points tg.compiled ~feeds
