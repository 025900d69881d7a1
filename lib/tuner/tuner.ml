(* The auto-tuning module (paper Section 5).

   Implements the two-stage joint tuner of ALT:
   - the *joint stage* cross-explores layouts and loops (Fig. 8): a layout
     agent (PPO or random) proposes template knobs; each proposed layout is
     assessed by several rounds of loop tuning; the best latency feeds back
     as the layout agent's reward (r = U - l, Eq. (3));
   - the *loop-only stage* freezes the best layout and spends the remaining
     budget purely on loop knobs, so the loop space is never reconstructed
     again.

   Loop tuning itself is cost-model-guided: a batch of candidates is
   generated by mutation + random sampling, ranked by the GBDT model, and
   only the predicted top-k are measured (the paper measures the top-8 of
   each batch/episode).  Baseline tuners (AutoTVM-, FlexTensor-, Ansor-like
   and the vendor-library stand-in) reuse the same machinery with the
   paper's described restrictions. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Propagate = Alt_graph.Propagate
module Features = Alt_costmodel.Features
module Gbdt = Alt_costmodel.Gbdt
module Ppo = Alt_rl.Ppo
module Pool = Alt_parallel.Pool

let src = Logs.Src.create "alt.tuner" ~doc:"ALT auto-tuner"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Cost model state                                                   *)
(* ------------------------------------------------------------------ *)

(* Cross-task cost-model transfer (scheduler): [donor] is consulted once,
   at the first fit, and a donated ensemble is warm-started on this task's
   samples via [Gbdt.refit]; [publish] exports every fitted model so
   similar tasks tuned later can draw from it.  Both callbacks run inside
   the tuner's fit path, so they must not measure or draw randomness. *)
type transfer = {
  donor : unit -> Gbdt.t option;
  publish : Gbdt.t -> unit;
}

(* Training data lives in growable append-order arrays (amortized O(1)
   per sample, no per-fit list traversals).  The pre-refactor code kept
   prepend-order lists and materialized them at every fit, so the fitter
   saw samples in reverse-chronological order; the reversed views below
   reproduce that order exactly — sample order feeds the fitter's
   root-node float sums, so it is part of the bit-identical trajectory
   contract. *)
type cost_model = {
  mutable xs : float array array; (* capacity; rows [0, n) are live *)
  mutable ys : float array; (* log latency *)
  mutable n : int;
  mutable model : Gbdt.t option;
  mutable stale : bool;
  mutable fit_ms : float; (* cumulative fit wall time; 0 unless obs is on *)
  transfer : transfer option; (* cross-task warm start (scheduler) *)
}

let new_cost_model ?transfer () =
  {
    xs = Array.make 64 [||];
    ys = Array.make 64 0.0;
    n = 0;
    model = None;
    stale = false;
    fit_ms = 0.0;
    transfer;
  }

let cm_add cm x y =
  if cm.n = Array.length cm.xs then begin
    let cap = 2 * cm.n in
    let xs = Array.make cap [||] and ys = Array.make cap 0.0 in
    Array.blit cm.xs 0 xs 0 cm.n;
    Array.blit cm.ys 0 ys 0 cm.n;
    cm.xs <- xs;
    cm.ys <- ys
  end;
  cm.xs.(cm.n) <- x;
  cm.ys.(cm.n) <- Float.log y;
  cm.n <- cm.n + 1;
  cm.stale <- true

let cm_fit cm =
  if cm.stale && cm.n >= 8 then begin
    (* fit wall time is only sampled when observability is on: the clock
       reads feed telemetry, never the fit itself, so they are
       trajectory-neutral — and skipped entirely at the defaults *)
    let obs = Alt_obs.Metrics.enabled () || Alt_obs.Trace.enabled () in
    let t0 = if obs then Alt_obs.Trace.now_ms () else 0.0 in
    let n = cm.n in
    (* reverse-chronological views: see the [cost_model] comment *)
    let xs = Array.init n (fun i -> cm.xs.(n - 1 - i)) in
    let ys = Array.init n (fun i -> cm.ys.(n - 1 - i)) in
    let donor =
      (* first fit: a donated ensemble from a similar task warm-starts
         the model — transferred trees seed the prediction, then new
         trees are boosted on this task's own residuals *)
      match (cm.model, cm.transfer) with
      | None, Some tx -> tx.donor ()
      | _ -> None
    in
    let m =
      match donor with Some d -> Gbdt.refit d xs ys | None -> Gbdt.fit xs ys
    in
    cm.model <- Some m;
    cm.stale <- false;
    (match cm.transfer with None -> () | Some tx -> tx.publish m);
    if obs then cm.fit_ms <- cm.fit_ms +. (Alt_obs.Trace.now_ms () -. t0)
  end

let cm_predict cm (x : float array) : float =
  match cm.model with Some m -> Gbdt.predict m x | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Tuning state and history                                           *)
(* ------------------------------------------------------------------ *)

type result = {
  best_latency : float; (* ms; infinity if nothing measured *)
  best_choice : Propagate.choice;
  best_schedule : Schedule.t;
  best_result : Profiler.result option;
  history : (int * float) list; (* (budget spent, best so far) *)
  spent : int;
}

(* Best-so-far snapshot handed to the stepping hook after every
   measurement round — the scheduler's unit of observation. *)
type progress = {
  rounds : int; (* measurement rounds completed *)
  spent : int; (* trials charged to the task budget *)
  best_latency : float; (* ms; infinity if nothing measured yet *)
}

type state = {
  task : Measure.task;
  mutable best_lat : float;
  mutable best_choice : Propagate.choice option;
  mutable best_sched : Schedule.t option;
  mutable best_prof : Profiler.result option;
  mutable hist : (int * float) list;
  budget : int;
  pool : Pool.t; (* measurement parallelism; size 1 = serial *)
  rng : Random.State.t;
  cm : cost_model option;
  layout_scores : (string, Propagate.choice * float) Hashtbl.t;
      (* best observed latency per distinct layout choice *)
  elites : (string, (float * float array) list) Hashtbl.t;
      (* top loop points per layout, mutation parents *)
  fpr : string; (* run fingerprint guarding checkpoints *)
  ckpt_path : string option; (* checkpoint written after each round *)
  stop : unit -> bool; (* cooperative preemption probe, checked between
                          rounds only; default never stops *)
  on_progress : (progress -> unit) option;
      (* post-round suspension hook (scheduler Yield); fires after the
         round's checkpoint is on disk, so every suspension is durable *)
  mutable rounds : int; (* measurement rounds completed *)
  mutable last_generated : int; (* candidates generated this round *)
  mutable last_measured : int; (* measurement attempts this round *)
}

(* Digest of the tuner RNG state, by drawing from a copy: checkpoint
   validation data that avoids marshalling Random.State across versions.
   The draws are explicitly sequenced (argument evaluation order is
   unspecified). *)
let rng_digest rng =
  let c = Random.State.copy rng in
  let a = Random.State.bits c in
  let b = Random.State.bits c in
  let d = Random.State.bits c in
  let e = Random.State.bits c in
  Digest.to_hex (Digest.string (Printf.sprintf "%d|%d|%d|%d" a b d e))

let new_state ?(seed = 0) ?(jobs = 1) ?pool ?cm ?checkpoint ?resume
    ?(stop = fun () -> false) ?on_progress ?(tag = "") ~budget task =
  let fpr = Measure.fingerprint ~seed ~tag task in
  (match resume with
  | None -> ()
  | Some path -> (
      match Checkpoint.load_opt ~path with
      | None ->
          (* nothing to resume from yet: a fresh start, so kill/restart
             loops can pass the same --checkpoint/--resume path from the
             first run on *)
          Log.info (fun m -> m "no checkpoint at %s; starting fresh" path)
      | Some c ->
          if c.Checkpoint.fingerprint <> fpr then
            invalid_arg
              (Fmt.str
                 "Tuner: checkpoint %s was written by a different tuning \
                  run (fingerprint %s, this run is %s)"
                 path c.Checkpoint.fingerprint fpr);
          Measure.restore task ~cache:c.Checkpoint.cache
            ~quarantine:c.Checkpoint.quarantine;
          Log.info (fun m ->
              m "resuming from %s: %d rounds, %d measurements cached" path
                c.Checkpoint.rounds
                (List.length c.Checkpoint.cache))));
  {
    task;
    best_lat = Float.infinity;
    best_choice = None;
    best_sched = None;
    best_prof = None;
    hist = [];
    budget;
    (* a caller-provided pool lets many sessions share one measurement
       pool (the serve daemon); identical trajectories either way, since
       results are submission-ordered for every pool size *)
    pool = (match pool with Some p -> p | None -> Pool.create ~jobs ());
    rng = Random.State.make [| seed; 4242 |];
    cm;
    layout_scores = Hashtbl.create 16;
    elites = Hashtbl.create 16;
    fpr;
    ckpt_path = checkpoint;
    stop;
    on_progress;
    rounds = 0;
    last_generated = 0;
    last_measured = 0;
  }

(* Per-round tuner telemetry (DESIGN.md §11): one "tuner.round" instant
   record per measurement round, plus gated registry metrics.  Everything
   below reads tuner/task state and writes only to the obs sinks, so it
   cannot perturb the trajectory. *)
let m_rounds = Alt_obs.Metrics.counter "tuner.rounds"
let g_best = Alt_obs.Metrics.gauge "tuner.best_latency_ms"
let g_fit_ms = Alt_obs.Metrics.gauge "tuner.gbdt_fit_ms"

let round_telemetry st =
  (if Alt_obs.Metrics.enabled () then begin
     Alt_obs.Metrics.incr m_rounds;
     if Float.is_finite st.best_lat then
       Alt_obs.Metrics.set g_best st.best_lat;
     match st.cm with
     | Some cm -> Alt_obs.Metrics.set g_fit_ms cm.fit_ms
     | None -> ()
   end);
  if Alt_obs.Trace.enabled () then begin
    let cs = Measure.cache_stats st.task in
    let fs = Measure.fault_stats st.task in
    Alt_obs.Trace.instant "tuner.round"
      ~attrs:
        [
          ("round", Alt_obs.Json.Int st.rounds);
          ("generated", Alt_obs.Json.Int st.last_generated);
          ("measured", Alt_obs.Json.Int st.last_measured);
          ("spent", Alt_obs.Json.Int st.task.Measure.spent);
          ("cache_hits", Alt_obs.Json.Int cs.Measure.hits);
          ("cache_misses", Alt_obs.Json.Int cs.Measure.misses);
          ("faulted", Alt_obs.Json.Int fs.Measure.faulted);
          ("retried", Alt_obs.Json.Int fs.Measure.retried);
          ("quarantined", Alt_obs.Json.Int fs.Measure.quarantined);
          ( "gbdt_fit_ms",
            match st.cm with
            | Some cm -> Alt_obs.Json.Float cm.fit_ms
            | None -> Alt_obs.Json.Null );
          (* infinity (nothing measured yet) renders as null *)
          ("best_latency_ms", Alt_obs.Json.Float st.best_lat);
          (* primitive-chain depth of the best output layout so far *)
          ( "layout_chain_depth",
            match st.best_choice with
            | Some c ->
                Alt_obs.Json.Int
                  (List.length (Layout.prims c.Propagate.out_layout))
            | None -> Alt_obs.Json.Null );
        ]
  end

(* Close a measurement round: journal the tuning state to disk (if a
   checkpoint path was given), then fire the progress hook.  The checkpoint
   is saved {e before} the hook so a hook that raises — the tests' stand-in
   for a killed process — leaves the round's checkpoint behind. *)
let end_round st =
  st.rounds <- st.rounds + 1;
  round_telemetry st;
  (match st.ckpt_path with
  | None -> ()
  | Some path ->
      let cache, quarantine = Measure.snapshot st.task in
      Checkpoint.save ~path
        {
          Checkpoint.fingerprint = st.fpr;
          rounds = st.rounds;
          spent = st.task.Measure.spent;
          best_latency = st.best_lat;
          rng_digest = rng_digest st.rng;
          cache;
          quarantine;
        });
  match st.on_progress with
  | None -> ()
  | Some f ->
      f
        {
          rounds = st.rounds;
          spent = st.task.Measure.spent;
          best_latency = st.best_lat;
        }

let choice_key (c : Propagate.choice) =
  Fmt.str "%a|%a" Layout.pp c.Propagate.out_layout
    Fmt.(list ~sep:(any ";") (pair string Layout.pp))
    c.Propagate.in_layouts

let budget_left st = st.budget - st.task.Measure.spent

let n_elites = 4

(* [key] is [choice_key choice], rendered once by the caller. *)
let record st ~key choice sched vec (o : Measure.outcome) =
  let lat = Measure.latency_of o in
  if Float.is_finite lat then begin
    (match Hashtbl.find_opt st.layout_scores key with
    | Some (_, prev) when prev <= lat -> ()
    | _ -> Hashtbl.replace st.layout_scores key (choice, lat));
    if Array.length vec > 0 then begin
      let prev = try Hashtbl.find st.elites key with Not_found -> [] in
      let updated =
        List.filteri (fun i _ -> i < n_elites)
          (List.sort
             (fun (a, _) (b, _) -> Float.compare a b)
             ((lat, vec) :: prev))
      in
      Hashtbl.replace st.elites key updated
    end
  end;
  if lat < st.best_lat then begin
    st.best_lat <- lat;
    st.best_choice <- Some choice;
    st.best_sched <- Some sched;
    st.best_prof <- Measure.result_of o
  end;
  st.hist <- (st.task.Measure.spent, st.best_lat) :: st.hist;
  lat

(* ------------------------------------------------------------------ *)
(* Loop tuning                                                        *)
(* ------------------------------------------------------------------ *)

type loop_explorer =
  | Guided (* mutation + random, cost-model-ranked, measure top-k (Ansor/ALT) *)
  | Walk (* random walk, measure everything (FlexTensor: no cost model) *)
  | Restricted (* AutoTVM: restricted knob space, cost-model-guided *)

let explorer_name = function
  | Guided -> "guided"
  | Walk -> "walk"
  | Restricted -> "restricted"

let batch_size = 24
let top_k = 8

(* One round of loop tuning for a fixed layout choice.  Returns the best
   latency observed for this layout so far. *)
let loop_round st (choice : Propagate.choice) ~(explorer : loop_explorer)
    ~(layout_best : float ref) =
  let restricted = explorer = Restricted in
  let space =
    Loopspace.of_layout ~restricted st.task.Measure.op
      choice.Propagate.out_layout
  in
  let key = choice_key choice in
  let elites =
    (try Hashtbl.find st.elites key with Not_found -> [])
    |> List.filter (fun (_, v) -> Array.length v = Loopspace.dim space)
    |> Array.of_list (* indexed draws inside the batch loop *)
  in
  let n_el = Array.length elites in
  let gen_candidate i =
    (* the pool is mostly gentle mutations of elites (evolutionary
       exploitation) plus a tail of random points for diversity *)
    if n_el > 0 && i < batch_size * 3 / 4 then
      let _, parent = elites.(Random.State.int st.rng n_el) in
      Loopspace.mutate ~rng:st.rng ~rate:0.15 space parent
    else if n_el = 0 && i = 0 then Loopspace.heuristic_point space
    else if n_el = 0 && i < batch_size / 3 then
      Loopspace.mutate ~rng:st.rng ~rate:0.25 space
        (Loopspace.heuristic_point space)
    else Loopspace.random_point ~rng:st.rng space
  in
  let cands = List.init batch_size gen_candidate in
  let to_measure =
    match explorer with
    | Walk ->
        (* no cost model: measure a smaller batch directly *)
        List.filteri (fun i _ -> i < top_k) cands
    | Guided | Restricted -> (
        match st.cm with
        | None -> List.filteri (fun i _ -> i < top_k) cands
        | Some cm ->
            cm_fit cm;
            (* featurize through the task's memo cache (shared with the
               measurement pass below) and rank by predicted latency *)
            let scored =
              List.filter_map
                (fun v ->
                  let sched = Loopspace.decode space v in
                  match Measure.features_of st.task choice sched with
                  | None -> None
                  | Some f -> Some (cm_predict cm f, v))
                cands
            in
            let sorted =
              List.map snd
                (List.sort (fun (a, _) (b, _) -> Float.compare a b) scored)
            in
            (* epsilon-greedy: measure mostly model-ranked candidates plus
               a couple of unranked ones, so a mis-trained model cannot
               permanently filter out the good region *)
            let n_greedy = max 1 (top_k - 2) in
            let greedy = List.filteri (fun i _ -> i < n_greedy) sorted in
            let rest = List.filteri (fun i _ -> i >= n_greedy) sorted in
            let rest_n = List.length rest in
            let explore =
              if rest_n = 0 then []
              else
                List.init (min 2 rest_n) (fun _ ->
                    List.nth rest (Random.State.int st.rng rest_n))
            in
            greedy @ explore)
  in
  (* Batched measurement.  Selection replays the serial per-candidate
     budget check ahead of time: a candidate is attempted while budget
     remains, and only lowerable candidates consume a unit — so the
     attempted set is independent of the measurement results and can be
     fixed before any simulation runs.  Misses then simulate concurrently
     over the pool; [measure_programs] charges budget and invokes the
     callback in submission order, reproducing the serial trajectory
     byte-for-byte for any pool size. *)
  let virtual_spent = ref st.task.Measure.spent in
  let attempted =
    List.filter_map
      (fun v ->
        if st.budget - !virtual_spent > 0 then begin
          let sched = Loopspace.decode space v in
          let prog = Measure.program_of st.task choice sched in
          if prog <> None then incr virtual_spent;
          Some (v, sched, prog)
        end
        else None)
      to_measure
  in
  let attempted = Array.of_list attempted in
  st.last_generated <- batch_size;
  st.last_measured <- Array.length attempted;
  let progs = Array.map (fun (_, _, p) -> p) attempted in
  let on_result i (o : Measure.outcome) =
    let v, sched, prog = attempted.(i) in
    (match (st.cm, prog) with
    | Some cm, Some _ -> (
        (* failed-but-lowerable candidates feed the model an Ansor-style
           penalty instead of nothing, steering the search away from the
           failing region rather than leaving the model blind to it *)
        let feat () =
          (* shared with the ranking pass through the memo cache; the
             candidate lowered, so the vector exists *)
          Option.get (Measure.features_of st.task choice sched)
        in
        match o with
        | Measure.Ok pr -> cm_add cm (feat ()) pr.Profiler.latency_ms
        | Measure.Sim_error _ | Measure.Timeout | Measure.Quarantined ->
            cm_add cm (feat ()) Measure.penalty_latency_ms
        | Measure.Lower_error -> ())
    | _ -> ());
    let lat = record st ~key choice sched v o in
    if lat < !layout_best then layout_best := lat
  in
  ignore
    (Measure.measure_programs ~pool:st.pool ~on_result st.task progs
      : Measure.outcome array);
  end_round st

(* ------------------------------------------------------------------ *)
(* Layout exploration (joint stage)                                   *)
(* ------------------------------------------------------------------ *)

type layout_explorer =
  | Lrandom
  | Lppo of Ppo.t (* possibly pretrained; shared critic inside *)

let state_dim = 16
let actor_input_dim = state_dim + 4

(* Fixed-size embedding of the current layout knob configuration — the
   concatenated primitive states of Section 5.2.1. *)
let embed_state (tpl : Templates.t) (current : float array) : float array =
  let s = Array.make state_dim 0.0 in
  Array.iteri
    (fun i kn ->
      if i < state_dim / 2 then begin
        s.(i) <- current.(i);
        s.((state_dim / 2) + i) <-
          Float.log (float_of_int kn.Templates.extent) /. 10.0
      end)
    tpl.Templates.knobs;
  s

let knob_features (tpl : Templates.t) i =
  let kn = tpl.Templates.knobs.(i) in
  [|
    float_of_int i /. float_of_int (Array.length tpl.Templates.knobs);
    Float.log (float_of_int kn.Templates.extent) /. 10.0;
    (if kn.Templates.kname = "ot" || kn.Templates.kname = "ot'" then 1.0 else 0.0);
    1.0;
  |]

let propose_layout ?(warmup = false) st (tpl : Templates.t)
    (explorer : layout_explorer) (current : float array) :
    float array * Ppo.sample list =
  let nk = Array.length tpl.Templates.knobs in
  match explorer with
  | Lrandom -> (Array.init nk (fun _ -> Random.State.float st.rng 1.0), [])
  | Lppo agent ->
      let state = embed_state tpl current in
      let actions = Array.make nk 0.0 in
      let samples = ref [] in
      for i = 0 to nk - 1 do
        let input = Array.append state (knob_features tpl i) in
        let a, s =
          if warmup then Ppo.act_uniform agent input else Ppo.act agent input
        in
        actions.(i) <- a;
        samples := s :: !samples
      done;
      (actions, List.rev !samples)

(* ------------------------------------------------------------------ *)
(* The ALT tuner: joint stage + loop-only stage                        *)
(* ------------------------------------------------------------------ *)

let finish st =
  let fallback_choice () = Templates.trivial_choice st.task.Measure.op in
  let fallback_sched () =
    Schedule.default
      ~rank:(Shape.rank st.task.Measure.op.Opdef.out_shape)
      ~nred:(List.length st.task.Measure.op.Opdef.reduce)
  in
  {
    best_latency = st.best_lat;
    best_choice =
      (match st.best_choice with Some c -> c | None -> fallback_choice ());
    best_schedule =
      (match st.best_sched with Some s -> s | None -> fallback_sched ());
    best_result = st.best_prof;
    history = List.rev st.hist;
    spent = st.task.Measure.spent;
  }

(* rounds of loop tuning used to assess each candidate layout; richer
   budgets afford a second round, denoising the layout reward *)
let rounds_per_layout ~joint_budget = if joint_budget >= 160 then 2 else 1

let tune_alt ?(seed = 0) ?(jobs = 1) ?pool ?(levels = 1)
    ?(layout_explorer = `Ppo_fresh) ?(seed_layouts = true) ?checkpoint
    ?resume ?stop ?on_progress ?transfer ~(joint_budget : int)
    ~(loop_budget : int)
    (task : Measure.task) : result =
  Alt_obs.Trace.with_span "tuner.tune_alt" @@ fun () ->
  let op = task.Measure.op in
  let tpl = Templates.for_op ~levels op in
  (* the tag folds every structural tuner parameter into the checkpoint
     fingerprint, so e.g. an `Random-explorer checkpoint cannot resume a
     PPO run whose trajectory it would silently diverge from.  A
     cross-task transfer donor changes the first fit and hence the
     trajectory, so it is folded in as the ":tx" marker. *)
  let tag =
    Fmt.str "alt:levels=%d:%s:seed_layouts=%b%s" levels
      (match layout_explorer with
      | `Random -> "random"
      | `Ppo_fresh -> "ppo"
      | `Ppo _ -> "ppo-pretrained")
      seed_layouts
      (match transfer with Some _ -> ":tx" | None -> "")
  in
  match tpl with
  | None ->
      (* no layout space: degrade to loop-only tuning on trivial layouts *)
      let cm = new_cost_model ?transfer () in
      let st =
        new_state ~seed ~jobs ?pool ~cm ?checkpoint ?resume ?stop ?on_progress
          ~tag ~budget:(joint_budget + loop_budget) task
      in
      let choice = Templates.trivial_choice op in
      let lb = ref Float.infinity in
      while budget_left st > 0 && not (st.stop ()) do
        loop_round st choice ~explorer:Guided ~layout_best:lb
      done;
      finish st
  | Some tpl ->
      let cm = new_cost_model ?transfer () in
      let st =
        new_state ~seed ~jobs ?pool ~cm ?checkpoint ?resume ?stop ?on_progress
          ~tag ~budget:(joint_budget + loop_budget) task
      in
      let agent =
        match layout_explorer with
        | `Random -> Lrandom
        | `Ppo_fresh -> Lppo (Ppo.create ~seed ~state_dim:actor_input_dim ())
        | `Ppo of_agent ->
            (* per-task exploration reset: pretraining narrows the policy
               around other workloads' optima *)
            of_agent.Ppo.log_std <-
              Float.max of_agent.Ppo.log_std (Float.log 0.3);
            Lppo of_agent
      in
      let nk = Array.length tpl.Templates.knobs in
      let current = ref (Array.make nk 0.5) in
      (* ---- joint stage (cross exploration, Fig. 8) ----
         Seed with the strong heuristic layouts every practical system
         starts from (blocked NCHWc and channels-last), then explore with
         the layout agent; each candidate layout is assessed by rounds of
         loop tuning, whose best latency is the agent's reward. *)
      let seeds =
        [
          Templates.trivial_choice op;
          Templates.channels_last_choice op;
          Templates.blocked_choice op
            ~block:(2 * st.task.Measure.machine.Machine.lanes);
        ]
      in
      if seed_layouts then
        List.iter
          (fun choice ->
            let layout_best = ref Float.infinity in
            if st.task.Measure.spent < joint_budget && not (st.stop ()) then
              loop_round st choice ~explorer:Guided ~layout_best)
          seeds;
      let proposals = ref 0 in
      let warmup_proposals = match layout_explorer with `Ppo _ -> 0 | _ -> 3 in
      while
        st.task.Measure.spent < joint_budget
        && budget_left st > 0
        && not (st.stop ())
      do
        let warmup = !proposals < warmup_proposals in
        incr proposals;
        let actions, samples = propose_layout ~warmup st tpl agent !current in
        let choice =
          try Some (tpl.Templates.decode actions) with _ -> None
        in
        match choice with
        | None -> ()
        | Some choice ->
            let before = st.best_lat in
            let layout_best = ref Float.infinity in
            for _ = 1 to rounds_per_layout ~joint_budget do
              if st.task.Measure.spent < joint_budget && not (st.stop ())
              then loop_round st choice ~explorer:Guided ~layout_best
            done;
            if Float.is_finite !layout_best then begin
              (* anchor the agent's state at the best layout found so far *)
              if st.best_lat < before then current := actions;
              (* reward r = U - l with a log latency scale *)
              let reward = -.Float.log (Float.max 1e-6 !layout_best) in
              List.iter (fun (s : Ppo.sample) -> s.Ppo.reward <- reward) samples;
              match agent with
              | Lppo a -> Ppo.update a samples
              | Lrandom -> ()
            end
      done;
      (* ---- loop-only stage ----
         Greedy allocation over the layouts ranked by the joint stage:
         each round tunes the layout with the best observed latency, so a
         mis-ranked layout is abandoned as soon as another one overtakes
         it.  Layout scores only improve, so this converges to pure
         exploitation of the winner without hard early commitment. *)
      let pick_best_layout () =
        let best = ref None in
        Hashtbl.iter
          (fun _ (c, l) ->
            match !best with
            | Some (_, bl) when bl <= l -> ()
            | _ -> best := Some (c, l))
          st.layout_scores;
        match !best with
        | Some (c, _) -> c
        | None -> Templates.trivial_choice op
      in
      (* refinement phase: round-robin over the top-ranked layouts first,
         so the commitment below compares comparably-tuned arms instead of
         8-sample estimates *)
      let ranked () =
        Hashtbl.fold (fun _ v acc -> v :: acc) st.layout_scores []
        |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
        |> List.map fst
      in
      let contenders = List.filteri (fun i _ -> i < 2) (ranked ()) in
      List.iter
        (fun choice ->
          if budget_left st > top_k && not (st.stop ()) then begin
            let lb = ref Float.infinity in
            loop_round st choice ~explorer:Guided ~layout_best:lb
          end)
        contenders;
      while budget_left st > 0 && not (st.stop ()) do
        (* epsilon-greedy over layouts: mostly exploit the best-observed
           arm, but keep pulling the runner-up so a plateaued arm cannot
           lock out a better layout whose early estimate was unlucky *)
        let choice =
          if Random.State.float st.rng 1.0 < 0.25 then
            match ranked () with _ :: second :: _ -> second | _ -> pick_best_layout ()
          else pick_best_layout ()
        in
        let lb = ref Float.infinity in
        loop_round st choice ~explorer:Guided ~layout_best:lb
      done;
      finish st

(* ------------------------------------------------------------------ *)
(* Baseline systems                                                   *)
(* ------------------------------------------------------------------ *)

type system =
  | Vendor
  | Autotvm_like
  | Flextensor_like
  | Ansor_like
  | Alt
  | Alt_ol (* loop-only on fixed channels-last layouts *)

let systems =
  [
    ("vendor", Vendor);
    ("autotvm", Autotvm_like);
    ("flextensor", Flextensor_like);
    ("ansor", Ansor_like);
    ("alt", Alt);
    ("alt-ol", Alt_ol);
  ]

let system_name s = fst (List.find (fun (_, s') -> s' = s) systems)

(* Vendor library stand-in: a handful of expert schedules on a fixed
   blocked layout (block = 2 x SIMD lanes, the heuristic hand-tuned
   libraries bake in); picks the best of the small kernel set. *)
let vendor_schedules (op : Opdef.t) (choice : Propagate.choice) =
  let phys = Layout.physical_shape choice.Propagate.out_layout in
  let rank = Shape.rank phys in
  let nred = List.length op.Opdef.reduce in
  let base = Schedule.default ~rank ~nred in
  let with_last_inner s =
    (* make the trailing blocked dim the vectorized inner band *)
    let s = Schedule.split s ~dim:(rank - 1) ~inner:phys.(rank - 1) in
    Schedule.vectorize s
  in
  [
    base |> with_last_inner |> (fun s -> Schedule.parallel s 2)
    |> (fun s -> Schedule.reorder_reduce_outer s true)
    |> Schedule.unroll;
    base |> with_last_inner |> (fun s -> Schedule.parallel s 2);
    (base |> with_last_inner |> fun s ->
     Schedule.parallel (Schedule.split s ~dim:(rank - 2) ~inner:(min 4 phys.(rank - 2))) 2)
    |> (fun s -> Schedule.reorder_reduce_outer s true)
    |> Schedule.unroll;
    base |> Schedule.vectorize |> (fun s -> Schedule.parallel s 1);
  ]

let tune_vendor ?(jobs = 1) ?pool ?checkpoint ?resume ?stop ?on_progress
    (task : Measure.task) : result =
  Alt_obs.Trace.with_span "tuner.tune_vendor" @@ fun () ->
  let op = task.Measure.op in
  let block = 2 * task.Measure.machine.Machine.lanes in
  let choice = Templates.blocked_choice op ~block in
  let st =
    new_state ~jobs ?pool ?checkpoint ?resume ?stop ?on_progress
      ~tag:"vendor" ~budget:max_int task
  in
  let scheds = Array.of_list (vendor_schedules op choice) in
  let progs = Array.map (fun s -> Measure.program_of task choice s) scheds in
  let key = choice_key choice in
  let on_result i o =
    ignore (record st ~key choice scheds.(i) [||] o : float)
  in
  ignore
    (Measure.measure_programs ~pool:st.pool ~on_result task progs
      : Measure.outcome array);
  end_round st;
  finish st

(* Loop-only tuning over a list of fixed layout choices (the paper tries
   NOHW and NHWO for baselines and reports the best); the budget is split
   across the layout candidates. *)
let tune_loop_only ?(seed = 0) ?(jobs = 1) ?pool ?checkpoint ?resume ?stop
    ?on_progress ?transfer ~(explorer : loop_explorer) ~(budget : int)
    ~(layouts : Propagate.choice list) (task : Measure.task) : result =
  Alt_obs.Trace.with_span "tuner.tune_loop_only" @@ fun () ->
  let cm =
    match explorer with
    | Walk -> None
    | Guided | Restricted -> Some (new_cost_model ?transfer ())
  in
  let tag =
    Fmt.str "loop:%s:%s%s" (explorer_name explorer)
      (Digest.to_hex
         (Digest.string (String.concat ";" (List.map choice_key layouts))))
      (match transfer with Some _ -> ":tx" | None -> "")
  in
  let st =
    new_state ~seed ~jobs ?pool ?cm ?checkpoint ?resume ?stop ?on_progress
      ~tag ~budget task
  in
  let n = max 1 (List.length layouts) in
  let per = budget / n in
  List.iteri
    (fun i choice ->
      let stop_at = min budget ((i + 1) * per) in
      let lb = ref Float.infinity in
      while st.task.Measure.spent < stop_at && not (st.stop ()) do
        loop_round st choice ~explorer ~layout_best:lb
      done)
    layouts;
  finish st

let conv_fixed_layouts (op : Opdef.t) =
  match op.Opdef.kind with
  | Opdef.Conv _ ->
      [ Templates.trivial_choice op; Templates.channels_last_choice op ]
  | Opdef.Matmul _ ->
      [ Templates.gmm_kn op; Templates.gmm_nk op ]
  | Opdef.Simple -> [ Templates.trivial_choice op ]

let unusable_checkpoint msg =
  let n = String.length msg and sub = "checkpoint" in
  let m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let tune_op ?(seed = 0) ?(jobs = 1) ?pool ?checkpoint ?resume ?stop
    ?on_progress ~(system : system) ~(budget : int) (task : Measure.task) :
    result =
  let op = task.Measure.op in
  let loop_only explorer layouts =
    tune_loop_only ~seed ~jobs ?pool ?checkpoint ?resume ?stop ?on_progress
      ~explorer ~budget ~layouts task
  in
  match system with
  | Vendor ->
      tune_vendor ~jobs ?pool ?checkpoint ?resume ?stop ?on_progress task
  | Alt ->
      tune_alt ~seed ~jobs ?pool ?checkpoint ?resume ?stop ?on_progress
        ~joint_budget:(budget * 3 / 10) ~loop_budget:(budget * 7 / 10) task
  | Autotvm_like -> loop_only Restricted (conv_fixed_layouts op)
  | Flextensor_like -> loop_only Walk (conv_fixed_layouts op)
  | Ansor_like -> loop_only Guided (conv_fixed_layouts op)
  | Alt_ol -> loop_only Guided [ Templates.channels_last_choice op ]

(* ------------------------------------------------------------------ *)
(* Resumable stepping (scheduler)                                     *)
(* ------------------------------------------------------------------ *)

(* Runs a tuning entry point as a suspendable fiber — the one effect
   handler in the library; the scheduler and the serve engine both drive
   tuners through it.  The tuner's [on_progress] hook performs a [Yield]
   after every measurement round (checkpoint already on disk), handing
   control back with a best-so-far snapshot.  The [stop] probe lets
   [finish] wind the fiber down cooperatively, so the tuner's own
   finalization (fallback choices, history reversal, spans) runs and the
   result comes back through the normal [result] path; [abort] instead
   injects an exception at the suspension point, which runs the tuner's
   [Fun.protect] finalizers on its way out.  A fiber that raised stays
   failed: stepping or aborting it again re-raises the same exception. *)
module Step = struct
  type _ Effect.t += Yield : progress -> unit Effect.t

  type status = Running of progress | Done of result

  type outcome =
    | Finished of result
    | Yielded of progress * (unit, outcome) Effect.Deep.continuation

  let handler : (result, outcome) Effect.Deep.handler =
    {
      Effect.Deep.retc = (fun r -> Finished r);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield p ->
              Some
                (fun (k : (a, outcome) Effect.Deep.continuation) ->
                  Yielded (p, k))
          | _ -> None);
    }

  type fiber =
    | Init of (unit -> outcome)
    | Paused of (unit, outcome) Effect.Deep.continuation
    | Over of result
    | Failed of exn

  type t = {
    stop_flag : bool ref;
    mutable fiber : fiber;
    mutable last : progress;
  }

  let start (f : stop:(unit -> bool) -> on_progress:(progress -> unit) -> result)
      : t =
    let stop_flag = ref false in
    let body () =
      f
        ~stop:(fun () -> !stop_flag)
        ~on_progress:(fun p -> Effect.perform (Yield p))
    in
    {
      stop_flag;
      fiber = Init (fun () -> Effect.Deep.match_with body () handler);
      last = { rounds = 0; spent = 0; best_latency = Float.infinity };
    }

  let advance (t : t) run : status =
    match run () with
    | Finished r ->
        t.fiber <- Over r;
        Done r
    | Yielded (p, k) ->
        t.fiber <- Paused k;
        t.last <- p;
        Running p
    | exception e ->
        t.fiber <- Failed e;
        raise e

  let step (t : t) : status =
    match t.fiber with
    | Over r -> Done r
    | Failed e -> raise e
    | Init f -> advance t f
    | Paused k -> advance t (fun () -> Effect.Deep.continue k ())

  let abort (t : t) (e : exn) : status =
    match t.fiber with
    | Over r -> Done r
    | Failed e' -> raise e'
    | Init _ ->
        t.fiber <- Failed e;
        raise e
    | Paused k -> advance t (fun () -> Effect.Deep.discontinue k e)

  let finished (t : t) = match t.fiber with Over _ -> true | _ -> false
  let progress (t : t) = t.last

  let finish (t : t) : result =
    t.stop_flag := true;
    (* the stop probe fires before every further round, so the fiber falls
       through its remaining loops without measuring and returns *)
    let rec drive () = match step t with Done r -> r | Running _ -> drive () in
    drive ()
end
