(* Differential tests for the gradient task scheduler (DESIGN.md §14):
   jobs-count invariance of whole-zoo trajectories, equivalence of
   [Graph_tuner.tune_graph] (the Static policy) with a sequential
   per-task loop kept here as the oracle, task lifetime and metric
   publication under the scheduler, Tuner.Step fiber equivalence with
   direct tuner calls and its abort semantics, and the headline perf
   property — gradient scheduling with cost-model transfer beats (or
   matches) the static split on end-to-end latency at equal budget. *)

module Graph = Alt_graph.Graph
module Ops = Alt_graph.Ops
module Machine = Alt_machine.Machine
module Measure = Alt_tuner.Measure
module Templates = Alt_tuner.Templates
module Tuner = Alt_tuner.Tuner
module Taskset = Alt_tuner.Taskset
module Scheduler = Alt_tuner.Scheduler
module Graph_tuner = Alt_tuner.Graph_tuner

(* --- tiny two-model zoo: a conv net and an MLP sharing one gmm task --- *)

let conv_model () =
  let b = Graph.builder () in
  let x = Graph.input b "x" [| 1; 4; 8; 8 |] in
  let k = Graph.param b "k" [| 8; 4; 3; 3 |] in
  let y =
    Graph.add b
      (Ops.c2d ~name:"conv" ~inp:x ~ker:k ~out:"y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
         ~kh:3 ~kw:3 ())
  in
  let yr =
    Graph.add b (Ops.relu ~name:"relu" ~inp:y ~out:"yr" ~shape:[| 1; 8; 6; 6 |] ())
  in
  ignore yr;
  Graph.finish b ~outputs:[ yr ]

let mlp_model () =
  let b = Graph.builder () in
  let x = Graph.input b "x" [| 8; 8 |] in
  let w0 = Graph.param b "w0" [| 8; 8 |] in
  let w1 = Graph.param b "w1" [| 8; 12 |] in
  let h =
    Graph.add b (Ops.gmm ~name:"fc0" ~a:x ~b:w0 ~out:"h" ~m:8 ~k:8 ~n:8 ())
  in
  let hr =
    Graph.add b (Ops.relu ~name:"relu0" ~inp:h ~out:"hr" ~shape:[| 8; 8 |] ())
  in
  let o =
    Graph.add b (Ops.gmm ~name:"fc1" ~a:hr ~b:w1 ~out:"o" ~m:8 ~k:8 ~n:12 ())
  in
  ignore o;
  Graph.finish b ~outputs:[ o ]

(* the mlp's fc0 (gmm 8x8x8 + relu chain) also appears here, so the zoo
   exercises cross-model task dedup *)
let mixed_model () =
  let b = Graph.builder () in
  let x = Graph.input b "x" [| 8; 8 |] in
  let w0 = Graph.param b "w0" [| 8; 8 |] in
  let h =
    Graph.add b (Ops.gmm ~name:"g0" ~a:x ~b:w0 ~out:"h" ~m:8 ~k:8 ~n:8 ())
  in
  let hr =
    Graph.add b (Ops.relu ~name:"r0" ~inp:h ~out:"hr" ~shape:[| 8; 8 |] ())
  in
  let h2 =
    Graph.add b (Ops.gmm ~name:"g1" ~a:hr ~b:w0 ~out:"h2" ~m:8 ~k:8 ~n:8 ())
  in
  let h2r =
    Graph.add b (Ops.relu ~name:"r1" ~inp:h2 ~out:"h2r" ~shape:[| 8; 8 |] ())
  in
  ignore h2r;
  Graph.finish b ~outputs:[ h2r ]

let zoo () = [ ("convnet", conv_model ()); ("mlp", mlp_model ()) ]

let tune ?(jobs = 1) ~policy ~budget graphs =
  Graph_tuner.tune_models ~jobs ~max_points:2_000 ~policy
    ~system:Graph_tuner.Galt ~machine:Machine.intel_cpu ~budget graphs

(* --- task extraction across the zoo --- *)

let test_taskset_dedup () =
  let graphs =
    [ ("mlp", mlp_model ()); ("mixed", mixed_model ()) ]
  in
  let entries = Taskset.of_graphs graphs in
  (* fc0 and both of mixed's gmms share one signature; fc1 is its own *)
  Alcotest.(check int) "unique tasks" 2 (List.length entries);
  let shared = List.hd entries in
  Alcotest.(check (list (pair string int)))
    "occurrence counts"
    [ ("mlp", 1); ("mixed", 2) ]
    shared.Taskset.occurrences;
  Alcotest.(check int) "total occurrences" 3 (Taskset.occurrences_total shared)

(* --- determinism: jobs=1 and jobs=4 trajectories are byte-identical --- *)

let task_key (t : Scheduler.task_report) =
  ( t.Scheduler.signature,
    t.Scheduler.trials,
    t.Scheduler.rounds,
    t.Scheduler.best_latency,
    t.Scheduler.result.Tuner.history )

let check_reports_equal what (a : Scheduler.report) (b : Scheduler.report) =
  Alcotest.(check int) (what ^ ": picks") a.Scheduler.picks b.Scheduler.picks;
  Alcotest.(check int)
    (what ^ ": eps picks") a.Scheduler.eps_picks b.Scheduler.eps_picks;
  Alcotest.(check int) (what ^ ": spent") a.Scheduler.spent b.Scheduler.spent;
  List.iter2
    (fun ta tb ->
      if task_key ta <> task_key tb then
        Alcotest.failf "%s: task %s trajectory differs" what
          ta.Scheduler.signature)
    a.Scheduler.tasks b.Scheduler.tasks;
  Alcotest.(check (list (pair string (list (pair int (float 1e-12))))))
    (what ^ ": curves") a.Scheduler.curves b.Scheduler.curves

let test_jobs_invariance policy () =
  let budget = 72 in
  let r1, _ = tune ~jobs:1 ~policy ~budget (zoo ()) in
  let r4, _ = tune ~jobs:4 ~policy ~budget (zoo ()) in
  check_reports_equal (Scheduler.policy_name policy) r1 r4

(* --- tune_graph (Static through the scheduler) == the sequential loop --- *)

let machine = Machine.intel_cpu

(* The oracle for "Static == sequential split": unique tasks in
   first-seen order, each tuned by a direct call (no fiber, its own pool)
   on a fixed [max 8 (budget / tasks)] slice, with each system's tuner
   spelled out independently of Graph_tuner's factory. *)
let sequential_tune_graph ~system ~budget g =
  let entries = Taskset.of_graph g in
  let per_task = max 8 (budget / max 1 (List.length entries)) in
  let results =
    List.map
      (fun (e : Taskset.entry) ->
        let op = e.Taskset.node.Graph.op in
        let fused =
          match system with
          | Graph_tuner.Galt_wp -> [] (* adjacent propagation: no fusion *)
          | _ -> List.map (fun (c : Graph.node) -> c.Graph.op) e.Taskset.chain
        in
        let task = Measure.make_task ~fused ~max_points:2_000 ~machine op in
        let blocked =
          [ Templates.blocked_choice op ~block:(2 * machine.Machine.lanes) ]
        in
        let r =
          match system with
          | Graph_tuner.Gvendor ->
              Tuner.tune_op ~system:Tuner.Vendor ~budget:per_task task
          | Graph_tuner.Gautotvm ->
              Tuner.tune_loop_only ~explorer:Tuner.Restricted ~budget:per_task
                ~layouts:blocked task
          | Graph_tuner.Gansor ->
              Tuner.tune_loop_only ~explorer:Tuner.Guided ~budget:per_task
                ~layouts:blocked task
          | Graph_tuner.Galt_ol ->
              Tuner.tune_loop_only ~explorer:Tuner.Guided ~budget:per_task
                ~layouts:[ Templates.channels_last_choice op ]
                task
          | Graph_tuner.Galt | Graph_tuner.Galt_wp ->
              Tuner.tune_alt ~joint_budget:(per_task * 4 / 10)
                ~loop_budget:(per_task * 6 / 10) task
        in
        (e.Taskset.signature, r))
      entries
  in
  Graph_tuner.assemble ~system ~results g

let test_static_equals_sequential () =
  let budget = 48 in
  List.iter
    (fun system ->
      List.iter
        (fun (mname, model) ->
          let what = Graph_tuner.gsystem_name system ^ "/" ^ mname in
          let oracle = sequential_tune_graph ~system ~budget (model ()) in
          let tuned =
            Graph_tuner.tune_graph ~max_points:2_000 ~system ~machine ~budget
              (model ())
          in
          Alcotest.(check int)
            (what ^ ": tasks") oracle.Graph_tuner.tasks_tuned
            tuned.Graph_tuner.tasks_tuned;
          Alcotest.(check int)
            (what ^ ": measurements") oracle.Graph_tuner.measurements
            tuned.Graph_tuner.measurements;
          List.iter2
            (fun (sa, (ra : Tuner.result)) (sb, (rb : Tuner.result)) ->
              Alcotest.(check string) (what ^ ": task signature") sa sb;
              Alcotest.(check (float 0.0))
                (what ^ ": task best latency") ra.Tuner.best_latency
                rb.Tuner.best_latency;
              Alcotest.(check int)
                (what ^ ": task spent") ra.Tuner.spent rb.Tuner.spent;
              if ra.Tuner.history <> rb.Tuner.history then
                Alcotest.failf "%s: task %s: history differs" what sa)
            oracle.Graph_tuner.per_task tuned.Graph_tuner.per_task;
          if
            oracle.Graph_tuner.schedules <> tuned.Graph_tuner.schedules
            || oracle.Graph_tuner.choices <> tuned.Graph_tuner.choices
          then Alcotest.failf "%s: assembled choices differ" what)
        [ ("convnet", conv_model); ("mlp", mlp_model) ])
    Graph_tuner.[ Gvendor; Gautotvm; Gansor; Galt; Galt_ol; Galt_wp ]

(* --- task lifetime and metric publication --- *)

let loop_only_tuner : Scheduler.make_tuner =
 fun ~pool ~share ~total:_ ~transfer:_ ~stop ~on_progress task ->
  Tuner.tune_loop_only ~pool ~stop ~on_progress ~explorer:Tuner.Guided
    ~budget:share
    ~layouts:[ Templates.trivial_choice task.Measure.op ]
    task

(* Under Static a fiber builds its task when first stepped, and nothing
   keeps a finished fiber's task: when task k+1 is built, a full major
   GC has collected every task before it.  A scheduler that built all
   tasks up front, or kept them in its per-fiber state, would fail. *)
let test_static_releases_tasks () =
  let graphs = zoo () in
  let n = List.length (Taskset.of_graphs graphs) in
  let built = Weak.create n and count = ref 0 and alive = ref [] in
  let make_task (e : Taskset.entry) =
    Gc.full_major ();
    for k = 0 to !count - 1 do
      if Weak.check built k then alive := (!count, k) :: !alive
    done;
    let task =
      Measure.make_task ~max_points:2_000 ~machine e.Taskset.node.Graph.op
    in
    Weak.set built !count (Some task);
    incr count;
    task
  in
  let report =
    Scheduler.tune_models ~policy:Scheduler.Static ~make_task
      ~make_tuner:loop_only_tuner ~budget:48 graphs
  in
  Alcotest.(check int) "every task built once" n !count;
  Alcotest.(check int) "every task reported" n
    (List.length report.Scheduler.tasks);
  List.iter
    (fun (k1, k) ->
      Alcotest.failf "task %d still alive when task %d was built" k k1)
    (List.rev !alive)

let budget_spent () =
  Alt_obs.Metrics.counter_value (Alt_obs.Metrics.counter "measure.budget_spent")

(* Every fiber publishes its task's measure.* counters exactly once, when
   its tuner returns — including fibers wound down by [finish] — so the
   registry's spent-trial delta equals the trials the run reports. *)
let test_tune_graph_publishes_once () =
  let before = budget_spent () in
  let tg =
    Graph_tuner.tune_graph ~max_points:2_000 ~system:Graph_tuner.Galt
      ~machine ~budget:48 (mlp_model ())
  in
  Alcotest.(check bool) "measured" true (tg.Graph_tuner.measurements > 0);
  Alcotest.(check int)
    "budget_spent delta" tg.Graph_tuner.measurements (budget_spent () - before)

let test_gradient_publishes_once () =
  let before = budget_spent () in
  let report, _ = tune ~policy:Scheduler.Gradient ~budget:48 (zoo ()) in
  Alcotest.(check bool) "measured" true (report.Scheduler.spent > 0);
  Alcotest.(check int)
    "budget_spent delta" report.Scheduler.spent (budget_spent () - before);
  Alcotest.(check int)
    "report = sum of task trials" report.Scheduler.spent
    (List.fold_left
       (fun a (t : Scheduler.task_report) -> a + t.Scheduler.trials)
       0 report.Scheduler.tasks)

(* --- Tuner.Step: stepping to completion == calling the tuner directly --- *)

let step_task () =
  Measure.make_task ~machine:Machine.intel_cpu ~max_points:2_000
    (Ops.gmm ~name:"gmm" ~a:"A" ~b:"B" ~out:"C" ~m:8 ~k:8 ~n:8 ())

let test_step_equals_direct () =
  let direct =
    Tuner.tune_alt ~seed:0 ~joint_budget:12 ~loop_budget:20 (step_task ())
  in
  let fiber =
    Tuner.Step.start (fun ~stop ~on_progress ->
        Tuner.tune_alt ~seed:0 ~stop ~on_progress ~joint_budget:12
          ~loop_budget:20 (step_task ()))
  in
  let rec drive n =
    if n > 10_000 then Alcotest.fail "fiber did not finish";
    match Tuner.Step.step fiber with
    | Tuner.Step.Done r -> r
    | Tuner.Step.Running _ -> drive (n + 1)
  in
  let stepped = drive 0 in
  Alcotest.(check (float 0.0))
    "best latency" direct.Tuner.best_latency stepped.Tuner.best_latency;
  Alcotest.(check int) "spent" direct.Tuner.spent stepped.Tuner.spent;
  if direct.Tuner.history <> stepped.Tuner.history then
    Alcotest.fail "history differs";
  Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber);
  (* finish is idempotent on a done fiber *)
  let again = Tuner.Step.finish fiber in
  Alcotest.(check (float 0.0))
    "finish after done" stepped.Tuner.best_latency again.Tuner.best_latency

let test_step_early_finish () =
  let fiber =
    Tuner.Step.start (fun ~stop ~on_progress ->
        Tuner.tune_alt ~seed:0 ~stop ~on_progress ~joint_budget:12
          ~loop_budget:20 (step_task ()))
  in
  (match Tuner.Step.step fiber with
  | Tuner.Step.Done _ -> Alcotest.fail "finished after one round"
  | Tuner.Step.Running p ->
      Alcotest.(check bool) "one round" true (p.Tuner.rounds >= 1));
  let r = Tuner.Step.finish fiber in
  Alcotest.(check bool)
    "early result measured something" true
    (Float.is_finite r.Tuner.best_latency);
  Alcotest.(check bool) "finished" true (Tuner.Step.finished fiber);
  let p = Tuner.Step.progress fiber in
  Alcotest.(check bool)
    "progress tracks result" true
    (p.Tuner.best_latency >= r.Tuner.best_latency)

(* --- Tuner.Step.abort --- *)

exception Boom

(* A fiber whose tuner runs under a finalizer counting its runs. *)
let guarded_fiber finalized =
  Tuner.Step.start (fun ~stop ~on_progress ->
      Fun.protect
        ~finally:(fun () -> incr finalized)
        (fun () ->
          Tuner.tune_alt ~seed:0 ~stop ~on_progress ~joint_budget:12
            ~loop_budget:20 (step_task ())))

let abort_raises fiber e =
  match Tuner.Step.abort fiber e with
  | _ -> Alcotest.fail "abort returned instead of raising"
  | exception e' -> e'

let test_abort_at_yield () =
  let finalized = ref 0 in
  let fiber = guarded_fiber finalized in
  (match Tuner.Step.step fiber with
  | Tuner.Step.Running _ -> ()
  | Tuner.Step.Done _ -> Alcotest.fail "finished after one round");
  Alcotest.(check int) "paused fiber not finalized" 0 !finalized;
  Alcotest.(check bool) "abort surfaces the injected exception" true
    (abort_raises fiber Boom == Boom);
  Alcotest.(check int) "finalizer ran once" 1 !finalized;
  Alcotest.(check bool) "aborted fiber is not finished" false
    (Tuner.Step.finished fiber)

let test_abort_finished () =
  let finalized = ref 0 in
  let fiber = guarded_fiber finalized in
  let r = Tuner.Step.finish fiber in
  Alcotest.(check int) "finalizer ran once" 1 !finalized;
  match Tuner.Step.abort fiber Boom with
  | Tuner.Step.Done r' ->
      Alcotest.(check (float 0.0))
        "same result" r.Tuner.best_latency r'.Tuner.best_latency;
      Alcotest.(check int) "same spent" r.Tuner.spent r'.Tuner.spent;
      Alcotest.(check int) "no second finalization" 1 !finalized
  | Tuner.Step.Running _ -> Alcotest.fail "finished fiber resumed"

(* Pinned: a fiber that an abort ended stays failed — stepping, aborting
   or finishing it again re-raises the exception that ended it, and runs
   nothing.  A fiber aborted before its first step never runs at all. *)
let test_step_after_abort () =
  let finalized = ref 0 in
  let fiber = guarded_fiber finalized in
  ignore (Tuner.Step.step fiber : Tuner.Step.status);
  ignore (abort_raises fiber Boom : exn);
  Alcotest.check_raises "step re-raises" Boom (fun () ->
      ignore (Tuner.Step.step fiber : Tuner.Step.status));
  Alcotest.(check bool) "abort re-raises the first exception" true
    (abort_raises fiber Not_found == Boom);
  Alcotest.check_raises "finish re-raises" Boom (fun () ->
      ignore (Tuner.Step.finish fiber : Tuner.result));
  Alcotest.(check int) "finalized once" 1 !finalized;
  let unstarted_runs = ref 0 in
  let unstarted = guarded_fiber unstarted_runs in
  Alcotest.(check bool) "unstarted abort raises" true
    (abort_raises unstarted Boom == Boom);
  Alcotest.check_raises "unstarted step re-raises" Boom (fun () ->
      ignore (Tuner.Step.step unstarted : Tuner.Step.status));
  Alcotest.(check int) "unstarted fiber never ran" 0 !unstarted_runs

(* --- the perf property: gradient + transfer >= static at equal budget --- *)

let e2e_latency tuned =
  List.fold_left
    (fun acc (_, tg) ->
      let r = Graph_tuner.run ~max_points:2_000 tg ~machine:Machine.intel_cpu in
      acc +. r.Alt_graph.Compile.latency_ms)
    0.0 tuned

let test_gradient_beats_static () =
  let budget = 96 in
  let rs, static = tune ~policy:Scheduler.Static ~budget (zoo ()) in
  let rg, gradient = tune ~policy:Scheduler.Gradient ~budget (zoo ()) in
  let transferred (r : Scheduler.report) =
    List.exists (fun (t : Scheduler.task_report) -> t.Scheduler.transferred)
      r.Scheduler.tasks
  in
  Alcotest.(check bool) "transfer on under gradient" true (transferred rg);
  Alcotest.(check bool) "transfer off under static" false (transferred rs);
  Alcotest.(check bool)
    "gradient spends within budget" true
    (rg.Scheduler.spent <= budget);
  let ls = e2e_latency static and lg = e2e_latency gradient in
  if not (lg <= ls *. 1.0001) then
    Alcotest.failf "gradient %g ms worse than static %g ms at budget %d" lg ls
      budget;
  (* curves exist for every model and spend is non-decreasing *)
  List.iter
    (fun (m, pts) ->
      Alcotest.(check bool) (m ^ ": has curve points") true (pts <> []);
      let rec mono = function
        | (s0, _) :: ((s1, _) :: _ as tl) ->
            if s0 > s1 then Alcotest.failf "%s: curve spend decreases" m;
            mono tl
        | _ -> ()
      in
      mono pts)
    rg.Scheduler.curves

(* --- QCheck2: jobs invariance over random seeds and job counts --- *)

let prop_jobs_invariant =
  QCheck2.Test.make ~count:3 ~name:"scheduler trajectory independent of jobs"
    QCheck2.Gen.(pair (int_range 0 3) (int_range 2 4))
    (fun (seed, jobs) ->
      let budget = 48 in
      let go jobs =
        Graph_tuner.tune_models ~seed ~jobs ~max_points:2_000
          ~policy:Scheduler.Gradient ~system:Graph_tuner.Galt
          ~machine:Machine.intel_cpu ~budget
          [ ("mlp", mlp_model ()); ("mixed", mixed_model ()) ]
      in
      let r1, _ = go 1 and rn, _ = go jobs in
      r1.Scheduler.picks = rn.Scheduler.picks
      && r1.Scheduler.spent = rn.Scheduler.spent
      && r1.Scheduler.curves = rn.Scheduler.curves
      && List.for_all2
           (fun a b -> task_key a = task_key b)
           r1.Scheduler.tasks rn.Scheduler.tasks)

let () =
  Alcotest.run "scheduler"
    [
      ( "taskset",
        [ Alcotest.test_case "cross-model dedup" `Quick test_taskset_dedup ] );
      ( "determinism",
        [
          Alcotest.test_case "gradient jobs=1 == jobs=4" `Quick
            (test_jobs_invariance Scheduler.Gradient);
          QCheck_alcotest.to_alcotest prop_jobs_invariant;
        ] );
      ( "static",
        [
          Alcotest.test_case "scheduler static == legacy loop" `Quick
            test_static_equals_sequential;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "static releases finished tasks" `Quick
            test_static_releases_tasks;
          Alcotest.test_case "tune_graph publishes each task once" `Quick
            test_tune_graph_publishes_once;
          Alcotest.test_case "gradient publishes each task once" `Quick
            test_gradient_publishes_once;
        ] );
      ( "step",
        [
          Alcotest.test_case "stepping == direct call" `Quick
            test_step_equals_direct;
          Alcotest.test_case "early finish is valid" `Quick
            test_step_early_finish;
          Alcotest.test_case "abort at a yield runs finalizers" `Quick
            test_abort_at_yield;
          Alcotest.test_case "abort a finished fiber" `Quick
            test_abort_finished;
          Alcotest.test_case "step after abort re-raises" `Quick
            test_step_after_abort;
        ] );
      ( "perf",
        [
          Alcotest.test_case "gradient+transfer >= static" `Quick
            test_gradient_beats_static;
        ] );
    ]
