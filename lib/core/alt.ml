(* ALT — joint data-layout and loop auto-tuning for deep learning
   compilation (reproduction of Xu et al., EuroSys 2023).

   This module is the public facade: it re-exports the stable API of every
   subsystem and provides the two entry points most users need —
   [tune_operator] for a single tensor operator and [compile_model] for an
   end-to-end computational graph. *)

(* --- substrate: tensors, layouts, symbolic indices --- *)
module Var = Alt_tensor.Var
module Shape = Alt_tensor.Shape
module Ixexpr = Alt_tensor.Ixexpr
module Layout = Alt_tensor.Layout
module Buffer = Alt_tensor.Buffer

(* --- operator IR and lowering --- *)
module Sexpr = Alt_ir.Sexpr
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Program = Alt_ir.Program
module Lower = Alt_ir.Lower

(* --- graphs, propagation, compilation --- *)
module Ops = Alt_graph.Ops
module Graph = Alt_graph.Graph
module Propagate = Alt_graph.Propagate
module Placement = Alt_graph.Placement
module Compile = Alt_graph.Compile

(* --- machine models and profiling --- *)
module Machine = Alt_machine.Machine
module Cache = Alt_machine.Cache
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime

(* exec backend: compiled macro-kernels + wall-clock measurement *)
module Kernel = Alt_exec.Kernel
module Exec = Alt_exec.Exec
module Rankcorr = Alt_exec.Rankcorr

(* --- measurement parallelism and fault tolerance --- *)
module Pool = Alt_parallel.Pool
module Fault = Alt_faults.Fault

module Json = Alt_obs.Json
module Metrics = Alt_obs.Metrics
module Trace = Alt_obs.Trace
module Tracecheck = Alt_obs.Tracecheck

(* --- learning components --- *)
module Features = Alt_costmodel.Features
module Gbdt = Alt_costmodel.Gbdt
module Mlp = Alt_rl.Mlp
module Ppo = Alt_rl.Ppo

(* --- auto-tuning --- *)
module Templates = Alt_tuner.Templates
module Loopspace = Alt_tuner.Loopspace
module Measure = Alt_tuner.Measure
module Checkpoint = Alt_tuner.Checkpoint
module Tuner = Alt_tuner.Tuner
module Taskset = Alt_tuner.Taskset
module Scheduler = Alt_tuner.Scheduler
module Graph_tuner = Alt_tuner.Graph_tuner

(* --- tuning-as-a-service daemon --- *)
module Workload = Alt_serve.Workload
module Proto = Alt_serve.Proto
module Store = Alt_serve.Store
module Serve = Alt_serve.Serve
module Daemon = Alt_serve.Daemon

(* --- model zoo --- *)
module Zoo = Alt_models.Zoo

(** Jointly tune layouts and loops of a single operator with ALT's
    two-stage tuner.  [budget] counts simulated on-device measurements;
    30% goes to the joint stage and 70% to the loop-only stage, as in the
    paper's single-operator setup.  [jobs] parallelizes the measurements
    without changing the result (see DESIGN.md §7).  [faults]/[retries]
    configure fault injection and recovery, [checkpoint]/[resume] the
    round journal (see DESIGN.md §8). *)
let tune_operator ?(machine = Machine.intel_cpu) ?(budget = 200)
    ?(max_points = 40_000) ?seed ?jobs ?levels ?faults ?retries
    ?watchdog_points ?backend ?warm_start ?checkpoint ?resume (op : Opdef.t) :
    Tuner.result =
  let task =
    Measure.make_task ~machine ~max_points ?faults ?retries ?watchdog_points
      ?backend op
  in
  Tuner.tune_alt ?seed ?jobs ?levels ?warm_start ?checkpoint ?resume
    ~joint_budget:(budget * 3 / 10)
    ~loop_budget:(budget * 7 / 10)
    task

(** Tune and compile an end-to-end model through the task scheduler
    (DESIGN.md §14).  [scheduler] picks the trial allocation policy;
    the default [Static] gives each unique task a fixed slice of
    [budget], the paper's setup. *)
let compile_model ?(system = Graph_tuner.Galt) ?(machine = Machine.intel_cpu)
    ?(budget = 400) ?max_points ?seed ?jobs ?levels ?faults ?retries
    ?backend ?warm_start ?scheduler (g : Graph.t) : Graph_tuner.tuned_graph =
  Graph_tuner.tune_graph ?seed ?jobs ?levels ?max_points ?faults ?retries
    ?backend ?warm_start ?scheduler ~system ~machine ~budget g

(** Tune a whole zoo of named models under one global trial budget with
    the gradient task scheduler (DESIGN.md §14), sharing tuning runs and
    cost models across structurally identical tasks. *)
let tune_zoo ?(system = Graph_tuner.Galt) ?(machine = Machine.intel_cpu)
    ?(budget = 400) ?(policy = Scheduler.Gradient) ?max_points ?seed ?jobs
    ?levels ?faults ?retries ?backend ?warm_start ?transfer
    (graphs : (string * Graph.t) list) :
    Scheduler.report * (string * Graph_tuner.tuned_graph) list =
  Graph_tuner.tune_models ?seed ?jobs ?levels ?max_points ?faults ?retries
    ?backend ?warm_start ?transfer ~policy ~system ~machine ~budget graphs

(** Execute a tuned model on its machine model and report the simulated
    end-to-end latency. *)
let run_model ?max_points (tg : Graph_tuner.tuned_graph)
    ~(machine : Machine.t) : Compile.exec_result =
  Graph_tuner.run ?max_points tg ~machine

let version = "0.1.0"
