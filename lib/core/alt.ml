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
    paper's single-operator setup.  [max_points] caps each measurement's
    simulated iteration points.  {!Tuner.tune_alt} takes the remaining
    settings (seed, jobs, checkpoints). *)
let tune_operator ?(machine = Machine.intel_cpu) ?(budget = 200)
    ?(max_points = 40_000) (op : Opdef.t) : Tuner.result =
  let task = Measure.make_task ~machine ~max_points op in
  Tuner.tune_alt ~joint_budget:(budget * 3 / 10)
    ~loop_budget:(budget * 7 / 10) task

(** Tune and compile an end-to-end model with the paper's fixed per-task
    split of [budget] (DESIGN.md §14); {!Graph_tuner.run} executes the
    result.  {!Graph_tuner.tune_models} tunes a whole zoo under the
    gradient task scheduler. *)
let compile_model ?(system = Graph_tuner.Galt) ?(machine = Machine.intel_cpu)
    ?(budget = 400) ?seed (g : Graph.t) : Graph_tuner.tuned_graph =
  Graph_tuner.tune_graph ?seed ~system ~machine ~budget g

let version = "0.1.0"
