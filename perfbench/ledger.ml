(* The performance ledger: one command, three workloads, end-to-end
   metrics from untraced runs and per-layer metrics from a traced run.

     ledger --workload zoo-schedule|model-tune-run|serve-burst
            --seed N --seconds S --trace 0|1

   A run sets up its inputs from the seed (several times, reporting the
   median set-up time), then repeats the workload in forked children,
   each as cold as a fresh CLI invocation, until [--seconds] have passed.
   Everything runs in one process tree at --jobs 1 with one exec domain.
   The last line of standard output is the JSON result; the lines before
   it name every metric with its unit.  A wrong output makes the run
   exit 1.  See perfbench/README.md for the metric definitions. *)

open Alt

let machine = Machine.intel_cpu

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

(* The quick-scale zoo of bench/bench_e2e.ml, keyed by short name. *)
let zoo () : (string * Graph.t) list =
  List.map
    (fun (key, (s : Zoo.spec)) -> (key, s.Zoo.graph))
    [
      ("r18", Zoo.resnet18 ~size:8 ~base:4 ());
      ("mv2", Zoo.mobilenet_v2 ~size:8 ());
      ("bt", Zoo.bert_tiny ());
      ("r3d", Zoo.resnet3d_18 ~size:8 ~depth:4 ~base:4 ());
    ]

(* Seeds of a run: one argument derives the tuner seed of every
   repetition, the feeds and the request mix. *)
let derive seed salt = Hashtbl.hash (seed, salt) land 0x3fffffff
let tuner_seed ~seed rep = derive seed ("tuner", rep)

type model_input = {
  key : string;
  graph : Graph.t;
  feeds : (string * float array) list;
  reference : (string * float array) list;
}

let model_inputs ~seed : model_input list =
  List.map
    (fun (key, graph) ->
      let feeds = Graph.random_feeds ~seed:(derive seed ("feeds", key)) graph in
      { key; graph; feeds; reference = Graph.reference_execute graph ~feeds })
    (zoo ())

(* ------------------------------------------------------------------ *)
(* Repetitions                                                        *)
(* ------------------------------------------------------------------ *)

(* What one repetition reports.  [layers] carries the per-layer numbers
   the ledger times itself; a traced repetition adds the ones read from
   the program's trace and metrics registry. *)
type rep = {
  tune_s : float;  (** CPU seconds *)
  tune_wall_s : float;  (** the same section on the wall clock, which the
                            trace's span times are on *)
  compile_in_tune_s : float;  (** exec.compile_s spent inside tune_s *)
  work_s : float;  (** tune_s plus the call phase, for obs overhead *)
  sim_ms : float;
  calls_ms : float list;
  attempted : int;
  failed : int;
  wrong : int;  (** outputs that failed their check *)
  rss_mb : float;
  counters : (string * int) list;  (** counter values at the end of tuning *)
  layers : (string * float) list;
}

(* The end of the tuning section.  The counters are read here and the
   trace is cut here, so the per-layer figures of a traced repetition are
   the tuner's alone, not those of the ledger's own simulation and passes
   over the tuned models that follow. *)
let tune_end () : (string * int) list =
  if Trace.enabled () then Trace.instant Tracereader.tune_end;
  List.filter_map
    (fun (m : Metrics.metric) ->
      match m.Metrics.value with
      | Metrics.Counter v -> Some (m.Metrics.name, v)
      | _ -> None)
    (Metrics.snapshot ())

let counter counters name =
  Option.value ~default:0 (List.assoc_opt name counters)

(* Charged trials of the reps' tuning tasks and how many of them did not
   measure [Ok]: every charged trial is a cache hit, a fresh simulation
   (success or new quarantine) or a quarantined repeat.  Read from the
   [measure.*] counters the tuner publishes for every task. *)
let trial_outcomes counters =
  let c = counter counters in
  let spent = c "measure.budget_spent" in
  let ok =
    c "measure.cache.hits" + c "measure.cache.misses"
    - c "measure.faults.quarantined"
  in
  (spent, spent - ok)

(* The call phase of the two model workloads: simulate every tuned model
   unsampled, then run inference passes over the four models on their
   kernels, checking every model output of every pass against the
   reference within [rel_tolerance]. *)
let rel_tolerance = 1e-9

type models_run = {
  m_sim_ms : float;
  m_passes : float list;
  m_wrong : int;
  m_layers : (string * float) list;
}

let run_models ~passes ~simulate (inputs : model_input list)
    (tuned : (string * Graph_tuner.tuned_graph) list)
    (built : (string * Kernels.model) list) ~compile_s : models_run =
  let sims =
    if not simulate then []
    else
      List.map
        (fun (key, tg) ->
          let r = Graph_tuner.run ~max_points:max_int tg ~machine in
          if r.Compile.sampled then failwith (key ^ ": simulation was sampled");
          (key, r))
        tuned
  in
  let sim_ms =
    List.fold_left (fun a (_, r) -> a +. r.Compile.latency_ms) 0.0 sims
  in
  let pass_ms = ref [] and wrong = ref 0 and worst = ref 0.0 in
  let stage_ms =
    List.map
      (fun (k, (m : Kernels.model)) ->
        (k, Array.make (Array.length m.Kernels.stages) []))
      built
  in
  let per_model = Hashtbl.create 4 in
  let compute = ref [] and convert = ref [] in
  for _ = 1 to passes do
    let total = ref 0.0 and comp = ref 0.0 and conv = ref 0.0 in
    let bad = ref false in
    List.iter
      (fun (inp : model_input) ->
        let m = List.assoc inp.key built in
        let times = Kernels.run m in
        let hist = List.assoc inp.key stage_ms in
        Array.iteri
          (fun i t ->
            hist.(i) <- t :: hist.(i);
            if m.Kernels.stages.(i).Kernels.convert then conv := !conv +. t
            else comp := !comp +. t)
          times;
        let ms = Array.fold_left ( +. ) 0.0 times in
        total := !total +. ms;
        Hashtbl.replace per_model inp.key
          (ms :: Option.value ~default:[] (Hashtbl.find_opt per_model inp.key));
        let err = Kernels.rel_error m ~reference:inp.reference in
        worst := Float.max !worst err;
        if not (err <= rel_tolerance) then bad := true)
      inputs;
    if !bad then incr wrong;
    pass_ms := !total :: !pass_ms;
    compute := !comp :: !compute;
    convert := !conv :: !convert
  done;
  (* simulator vs kernels, over every compute stage of the zoo *)
  let sim_v = ref [] and exec_v = ref [] in
  List.iter
    (fun (key, (r : Compile.exec_result)) ->
      let m = List.assoc key built and hist = List.assoc key stage_ms in
      List.iteri
        (fun i (_, (p : Profiler.result)) ->
          if not m.Kernels.stages.(i).Kernels.convert then begin
            sim_v := p.Profiler.latency_ms :: !sim_v;
            exec_v := Proc.median hist.(i) :: !exec_v
          end)
        r.Compile.per_stage)
    sims;
  let rho =
    Rankcorr.spearman (Array.of_list !sim_v) (Array.of_list !exec_v)
  in
  let macro, generic =
    List.fold_left
      (fun (a, b) (_, m) ->
        let x, y = Kernels.stats m in
        (a + x, b + y))
      (0, 0) built
  in
  let plan_sum f =
    List.fold_left
      (fun a (_, (tg : Graph_tuner.tuned_graph)) ->
        a + f tg.Graph_tuner.compiled.Compile.plan)
      0 tuned
  in
  {
    m_sim_ms = sim_ms;
    m_passes = !pass_ms;
    m_wrong = !wrong;
    m_layers =
      [
        ("exec.max_rel_error", !worst);
        ("machine.sim_exec_rho", if Float.is_nan rho then 0.0 else rho);
        ( "graph.conversions",
          float_of_int (plan_sum (fun p -> p.Propagate.conversions)) );
        ( "graph.fused_ops",
          float_of_int (plan_sum (fun p -> p.Propagate.fused_ops)) );
        ("exec.compile_s", compile_s);
        ("exec.compute_ms", Proc.median !compute);
        ("exec.convert_ms", Proc.median !convert);
        ( "exec.macro_share",
          float_of_int macro /. float_of_int (max 1 (macro + generic)) );
      ]
      @ List.map
          (fun (inp : model_input) ->
            ( "exec.model_ms." ^ inp.key,
              Proc.median (Hashtbl.find per_model inp.key) ))
          inputs;
  }

let build_kernels (inputs : model_input list) tuned =
  let built =
    List.map
      (fun (inp : model_input) ->
        let tg = List.assoc inp.key tuned in
        ( inp.key,
          Kernels.build ~name:inp.key tg.Graph_tuner.compiled ~feeds:inp.feeds
        ))
      inputs
  in
  (List.map (fun (k, (m, _)) -> (k, m)) built,
   List.fold_left (fun a (_, (_, s)) -> a +. s) 0.0 built)

let models_rep ~passes ~simulate ~tune_s ~tune_wall_s ~counters ~build_s
    ~compile_in_tune_s (inputs : model_input list) tuned built ~compile_s
    ~max_task_trials : rep =
  let attempted_trials, failed_trials = trial_outcomes counters in
  let r = run_models ~passes ~simulate inputs tuned built ~compile_s in
  {
    tune_s;
    tune_wall_s;
    compile_in_tune_s;
    work_s = tune_s +. build_s +. (Proc.sum r.m_passes *. 1e-3);
    sim_ms = r.m_sim_ms;
    calls_ms = r.m_passes;
    attempted = attempted_trials + passes;
    failed = failed_trials + r.m_wrong;
    wrong = r.m_wrong;
    rss_mb = Proc.peak_rss_mb ();
    counters;
    layers =
      ("tuner.max_task_trials", float_of_int max_task_trials) :: r.m_layers;
  }

(* zoo-schedule: the `alt schedule` path — one global budget over the
   deduplicated tasks of the zoo, gradient policy, transfer on. *)
let zoo_trials_per_task = 24

let zoo_rep (inputs : model_input list) ~tseed ~simulate : rep =
  let graphs = List.map (fun (i : model_input) -> (i.key, i.graph)) inputs in
  let budget = zoo_trials_per_task * List.length (Taskset.of_graphs graphs) in
  let wall0 = Proc.now () in
  let (report, tuned), tune_s =
    Proc.time (fun () ->
        Graph_tuner.tune_models ~seed:tseed ~max_points:8_000
          ~policy:Scheduler.Gradient ~system:Graph_tuner.Galt ~machine ~budget
          graphs)
  in
  let tune_wall_s = Proc.now () -. wall0 in
  let counters = tune_end () in
  let (built, compile_s), build_s =
    Proc.time (fun () -> build_kernels inputs tuned)
  in
  let max_task_trials =
    List.fold_left
      (fun a (t : Scheduler.task_report) -> max a t.Scheduler.trials)
      0 report.Scheduler.tasks
  in
  models_rep ~passes:8 ~simulate ~tune_s ~tune_wall_s ~counters ~build_s
    ~compile_in_tune_s:0.0 inputs tuned built ~compile_s ~max_task_trials

(* model-tune-run: the `alt tune-model` path, model by model with the
   fixed per-task split; tune_s runs until the kernels are compiled. *)
let model_trials = 200

let model_rep (inputs : model_input list) ~tseed ~simulate : rep =
  let wall0 = Proc.now () in
  let (tuned, built, compile_s), tune_s =
    Proc.time (fun () ->
        let tuned =
          List.map
            (fun (i : model_input) ->
              ( i.key,
                Alt.compile_model ~seed:tseed ~budget:model_trials i.graph ))
            inputs
        in
        let built, compile_s = build_kernels inputs tuned in
        (tuned, built, compile_s))
  in
  let tune_wall_s = Proc.now () -. wall0 in
  let counters = tune_end () in
  let max_task_trials =
    List.fold_left
      (fun a (_, (tg : Graph_tuner.tuned_graph)) ->
        List.fold_left
          (fun a (_, (r : Tuner.result)) -> max a r.Tuner.spent)
          a tg.Graph_tuner.per_task)
      0 tuned
  in
  models_rep ~passes:8 ~simulate ~tune_s ~tune_wall_s ~counters ~build_s:0.0
    ~compile_in_tune_s:compile_s inputs tuned built ~compile_s
    ~max_task_trials

(* ------------------------------------------------------------------ *)
(* serve-burst                                                        *)
(* ------------------------------------------------------------------ *)

let clients = 4 (* the engine's default max_active: nothing waits *)

(* The request mix of one burst.  Every request is the service's default
   request, [Workload.default_tune_spec] (budget 64, max_points 40000,
   the default operator shape), with only the operator kind, the data
   seed and the tuner seed set.  A burst holds one measurement context
   (kind and data seed) per operator kind the service accepts, and sends
   each context [per_context] times under a new tuner seed, in a seeded
   order: 8 fresh requests and 24 repeats, whose sessions read what the
   earlier ones stored.  The share of repeats sets how much of a burst is
   store hits rather than fresh simulation.  A service probe saw 438
   simulations for 4800 charged trials (9 % fresh), which no mix at these
   defaults reaches: with no repeats a burst simulates 33 % of its
   charged trials, and 75 requests on a single context still 18 %.  So
   the burst takes as many repeats as keep every kind in it and six
   bursts within a 30-second run. *)
let kinds = [| "c2d"; "gmm"; "dep"; "c1d"; "grp"; "t2d"; "dil"; "c3d" |]
let per_context = 4

let serve_mix ~seed : Workload.tune_spec list =
  let rng = Random.State.make [| seed |] in
  let contexts =
    Array.map
      (fun kind ->
        {
          Workload.default_tune_spec with
          Workload.op = { Workload.default_op with Workload.kind };
          data_seed = Random.State.int rng 1_000_000;
        })
      kinds
  in
  let n = Array.length kinds in
  let mix = Array.init (per_context * n) (fun i -> contexts.(i mod n)) in
  for i = Array.length mix - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = mix.(i) in
    mix.(i) <- mix.(j);
    mix.(j) <- t
  done;
  List.mapi
    (fun i spec -> { spec with Workload.seed = derive seed ("request", i) })
    (Array.to_list mix)

(* Set-up builds the engine, with its journal directory, and the mixes of
   the first [mixes] repetitions; repetition [i] sends mix [i mod mixes]. *)
let mixes = 64

type serve_ctx = {
  engine : Serve.t;
  store : Store.t;
  dir : string;
  mix : Workload.tune_spec list array;
}

let serve_setup ~seed ~dir : serve_ctx =
  let cfg = Serve.default_config ~journal_dir:dir () in
  {
    engine = Serve.create cfg;
    store = cfg.Serve.store;
    dir;
    mix = Array.init mixes (fun i -> serve_mix ~seed:(derive seed ("mix", i)));
  }

(* One side of the wire: frames in, payloads out. *)
let decode frames bytes =
  Proto.Frames.feed frames bytes;
  match Proto.Frames.next frames with
  | Ok (Some payload) -> payload
  | Ok None -> failwith "incomplete frame"
  | Error e -> failwith ("corrupt frame: " ^ e)

let serve_rep (ctx : serve_ctx) i : rep =
  let specs = ctx.mix.(i mod mixes) in
  (* a killed earlier repetition may have left journals behind; a stale
     checkpoint would be resumed, so start from an empty directory *)
  Array.iter
    (fun f -> Sys.remove (Filename.concat ctx.dir f))
    (Sys.readdir ctx.dir);
  let tracing = Trace.enabled () in
  let to_engine = Proto.Frames.create ()
  and to_client = Proto.Frames.create () in
  let pending = Hashtbl.create 8 in
  let ring = Queue.create () in
  let queue = ref (List.mapi (fun i s -> (Fmt.str "r%d" i, s)) specs) in
  let latencies = ref [] and failed = ref 0 and sim = ref 0.0 in
  let max_spent = ref 0 and charged = ref 0 in
  let submit_s = ref 0.0 and step_s = ref 0.0 in
  let answer id json =
    let json = Json.parse_exn (decode to_client (Proto.frame_json json)) in
    let t_sub, (spec : Workload.tune_spec) = Hashtbl.find pending id in
    Hashtbl.remove pending id;
    let result = Option.value ~default:Json.Null (Json.member "result" json) in
    let num k = Option.bind (Json.member k result) Json.to_float_opt in
    match (Json.member "status" json, num "best_latency_ms", num "spent") with
    | Some (Json.String "ok"), Some best, Some spent
      when Float.is_finite best && best > 0.0 && spent >= 1.0
           && spent <= float_of_int spec.Workload.budget ->
        latencies := ((Proc.cpu () -. t_sub) *. 1e3) :: !latencies;
        sim := !sim +. best;
        charged := !charged + int_of_float spent;
        max_spent := max !max_spent (int_of_float spent)
    | _ ->
        incr failed;
        Fmt.epr "request %s: %s@." id (Json.to_string json)
  in
  let rec submit_next () =
    match !queue with
    | [] -> ()
    | (id, spec) :: rest ->
        queue := rest;
        let t_sub = Proc.cpu () in
        Hashtbl.replace pending id (t_sub, spec);
        let wire =
          Proto.frame
            (Json.to_string
               (Proto.request_to_json
                  (Proto.Tune { id; spec; deadline_rounds = None })))
        in
        let req =
          match Proto.parse_request (decode to_engine wire) with
          | Ok r -> r
          | Error e -> failwith ("request codec: " ^ e)
        in
        let resps, dt = Proc.time (fun () -> Serve.submit ctx.engine req) in
        submit_s := !submit_s +. dt;
        if resps = [] then Queue.push id ring else respond resps
  and respond resps =
    List.iter
      (fun (id, j) ->
        answer id j;
        submit_next ())
      resps
  in
  let wall0 = Proc.now () in
  let (), burst_s =
    Proc.time (fun () ->
        for _ = 1 to clients do submit_next () done;
        while Hashtbl.length pending > 0 do
          if not (Serve.has_work ctx.engine) then
            failwith "engine idle with requests pending";
          (* the engine steps its sessions round-robin in admission
             order; the ring mirrors it so the trace can attribute each
             round to its session *)
          let head = Queue.pop ring in
          if tracing then
            Trace.instant "perfbench.serve.step"
              ~attrs:[ ("req", Json.String head) ];
          let resps, dt = Proc.time (fun () -> Serve.step ctx.engine) in
          step_s := !step_s +. dt;
          (match resps with
          | [] -> Queue.push head ring
          | [ (id, _) ] when id = head -> ()
          | _ -> failwith "engine answered out of round-robin order");
          respond resps
        done)
  in
  let tune_wall_s = Proc.now () -. wall0 in
  let counters = tune_end () in
  let st = Store.stats ctx.store in
  {
    tune_s = burst_s;
    tune_wall_s;
    compile_in_tune_s = 0.0;
    work_s = burst_s;
    sim_ms = !sim;
    calls_ms = !latencies;
    attempted = List.length specs;
    failed = !failed;
    wrong = !failed;
    rss_mb = Proc.peak_rss_mb ();
    counters;
    layers =
      [
        ("tuner.max_task_trials", float_of_int !max_spent);
        (* sessions keep their [measure.*] counters to themselves; every
           fresh simulation of a burst publishes one store result *)
        ( "tuner.fresh_share",
          float_of_int st.Store.result_inserts
          /. float_of_int (max 1 !charged) );
        ("serve.step_s", !step_s);
        ("serve.submit_s", !submit_s);
        ("serve.rounds", float_of_int (Serve.rounds_stepped ctx.engine));
        ( "serve.store_hit_share",
          float_of_int st.Store.result_hits
          /. float_of_int
               (max 1 (st.Store.result_hits + st.Store.result_inserts)) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* Every run makes at least [min_reps] repetitions, and tuned_sim_ms
   averages exactly these, so it repeats at a fixed seed.  Later
   repetitions of an untraced run skip the unsampled simulation, which
   feeds nothing else. *)
let min_reps = 6

type workload = {
  name : string;
  idle : string list;
      (** name prefixes of the per-layer metrics of layers the workload
          does not exercise; they read 0 *)
  setup : seed:int -> dir:string -> int -> rep;
      (** [dir] is fresh and not yet created; returns the rep closure *)
}

let workloads : workload list =
  let models rep_fn ~seed ~dir:_ =
    let inputs = model_inputs ~seed in
    fun i ->
      rep_fn inputs ~tseed:(tuner_seed ~seed i)
        ~simulate:(i < min_reps || Trace.enabled ())
  in
  [
    { name = "zoo-schedule"; idle = [ "serve." ]; setup = models zoo_rep };
    { name = "model-tune-run"; idle = [ "serve." ]; setup = models model_rep };
    {
      name = "serve-burst";
      idle = [ "graph."; "exec."; "machine.sim_exec_rho" ];
      setup = (fun ~seed ~dir -> serve_rep (serve_setup ~seed ~dir));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer numbers of a traced repetition                           *)
(* ------------------------------------------------------------------ *)

let traced (run : unit -> rep) ~path : rep =
  Trace.configure ~path;
  Metrics.enable ();
  let r = run () in
  Trace.close ();
  let t = Tracereader.read path in
  Sys.remove path;
  let c name = float_of_int (counter r.counters name) in
  let measure_s = Tracereader.span_s t "measure.batch" in
  let ckpt_s = Tracereader.span_s t "checkpoint.save" in
  let prof_s = Tracereader.span_s t "profiler.run" in
  let accesses = c "sim.l1.accesses" in
  let spent = c "measure.budget_spent" in
  let read =
    [
      ("costmodel.fit_s", t.Tracereader.fit_s);
      ("costmodel.featurizations", c "measure.lower.feat_misses");
      ("tuner.rounds", c "tuner.rounds");
      ("tuner.measure_s", measure_s);
      ( "tuner.other_s",
        r.tune_wall_s -. measure_s -. t.Tracereader.fit_s -. ckpt_s
        -. r.compile_in_tune_s );
      ( "tuner.fresh_share",
        if spent > 0.0 then c "measure.cache.misses" /. spent else 0.0 );
      ("tuner.checkpoint_s", ckpt_s);
      ( "tuner.checkpoints",
        float_of_int (Tracereader.span_count t "checkpoint.save") );
      ("ir.lowerings", c "measure.lower.prog_misses");
      ("tensor.relation_validates", c "layout.relation.validate");
      ("machine.profiler_s", prof_s);
      ( "machine.profiler_runs",
        float_of_int (Tracereader.span_count t "profiler.run") );
      ( "machine.ns_per_access",
        if accesses > 0.0 then prof_s *. 1e9 /. accesses else 0.0 );
    ]
  in
  (* what the repetition measured itself wins over the counters *)
  {
    r with
    layers =
      r.layers
      @ List.filter (fun (k, _) -> not (List.mem_assoc k r.layers)) read;
  }

(* ------------------------------------------------------------------ *)
(* Metrics and the command line                                       *)
(* ------------------------------------------------------------------ *)

(* The metric names and units of [key] ("end_to_end" or "per_layer") in
   BENCHMARK.json, which owns the metric set; the ledger runs from the
   root of the checkout. *)
let listed key : (string * string) list =
  let bench =
    Json.parse_exn (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
  in
  let field k m = Option.bind (Json.member k m) Json.to_string_opt in
  match Option.bind (Json.member key bench) Json.to_list_opt with
  | None -> Fmt.failwith "BENCHMARK.json has no %s list" key
  | Some ms ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> Fmt.failwith "BENCHMARK.json: a %s entry lacks name or unit" key)
        ms

(* Pair every listed metric with its measured value.  A measured metric
   that is not listed, or a listed one that is not measured, fails the
   run; only the metrics named by an [idle] prefix read 0. *)
let select listed ~idle (measured : (string * float) list) =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n listed) then
        Fmt.failwith "metric %s is not in BENCHMARK.json" n)
    measured;
  List.map
    (fun (n, u) ->
      match List.assoc_opt n measured with
      | Some v -> (n, u, v)
      | None when List.exists (fun p -> String.starts_with ~prefix:p n) idle ->
          (n, u, 0.0)
      | None -> Fmt.failwith "metric %s of BENCHMARK.json is not measured" n)
    listed

(* Set-up is timed in forked children, at least [min_setups] times and
   until [setup_window] seconds have passed, and once more in the parent,
   whose result the repetitions use.  Every sample starts from the same
   bare process with a directory of its own to create, and the parent
   holds one set-up's data, not the garbage of many, which would count in
   every child's resident set. *)
let min_setups = 2
let setup_window = 0.5
let max_setups = 50

(* The end-to-end timings are CPU time scaled to a host on which
   [Proc.probe] takes [probe_ref_s]: the run reads the probe before
   set-up, after every set-up sample and after every repetition, and
   multiplies by [probe_ref_s] over the median reading.  The constant is
   near the probe's time on a 2.1 GHz Xeon virtual machine in its faster
   state (0.022 to 0.025 s), so the scaled figures are close to CPU
   seconds there. *)
let probe_ref_s = 0.025

let usage () =
  prerr_endline
    "usage: ledger --workload zoo-schedule|model-tune-run|serve-burst --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let arg name =
    let rec find = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> find rest
      | [] -> usage ()
    in
    find (List.tl (Array.to_list Sys.argv))
  in
  let int_arg name = try int_of_string (arg name) with Failure _ -> usage () in
  let seed = int_arg "--seed" in
  let seconds = float_of_int (int_arg "--seconds") in
  let trace = int_arg "--trace" = 1 in
  let end_to_end = listed "end_to_end" and per_layer = listed "per_layer" in
  let w =
    match List.find_opt (fun w -> w.name = arg "--workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let dir = Fmt.str "perfbench/_run/%s-%d" w.name (Unix.getpid ()) in
  (try Unix.mkdir "perfbench/_run" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  at_exit (fun () -> Proc.rm_rf dir);
  let set_up n =
    let dir = Filename.concat dir (Fmt.str "setup%d" n) in
    Proc.time (fun () -> w.setup ~seed ~dir)
  in
  let probes = ref [] in
  let probe () =
    if not trace then probes := Proc.in_child Proc.probe :: !probes
  in
  for _ = 1 to 3 do probe () done;
  let setup_started = Proc.now () in
  let rec cold n acc =
    if
      n < min_setups
      || (Proc.now () -. setup_started < setup_window && n < max_setups)
    then begin
      let s = Proc.in_child (fun () -> snd (set_up n)) in
      probe ();
      cold (n + 1) (s :: acc)
    end
    else (n, acc)
  in
  let n, cold_s = cold 0 [] in
  let rep_of, parent_s = set_up n in
  let setup_s = Proc.median (parent_s :: cold_s) in
  let started = Proc.now () in
  let more i = i < min_reps || Proc.now () -. started < seconds in
  let report metrics ~attempted ~failed ~correct =
    List.iter
      (fun (name, unit, v) -> Fmt.pr "%-28s %14.6g %s@." name v unit)
      metrics;
    let json =
      Json.Obj
        [
          ("correct", Json.Bool correct);
          ("attempted", Json.Int attempted);
          ("failed", Json.Int failed);
          ( "metrics",
            Json.Obj
              (List.map
                 (fun (name, unit, v) ->
                   if not (Float.is_finite v) then
                     Fmt.failwith "metric %s is not finite" name;
                   ( name,
                     Json.Obj
                       [ ("value", Json.Float v); ("unit", Json.String unit) ]
                   ))
                 metrics) );
        ]
    in
    print_endline (Json.to_string json);
    if not correct then exit 1
  in
  let totals reps =
    ( List.fold_left (fun a r -> a + r.attempted) 0 reps,
      List.fold_left (fun a r -> a + r.failed) 0 reps,
      List.for_all (fun r -> r.wrong = 0) reps )
  in
  if not trace then begin
    let rec loop i acc =
      if more i then begin
        let r = Proc.in_child (fun () -> rep_of i) in
        probe ();
        loop (i + 1) (r :: acc)
      end
      else List.rev acc
    in
    let reps = loop 0 [] in
    let probe_s = Proc.median !probes in
    let scale x = x *. probe_ref_s /. probe_s in
    let attempted, failed, correct = totals reps in
    let calls = List.concat_map (fun r -> r.calls_ms) reps in
    let first = List.filteri (fun i _ -> i < min_reps) reps in
    let measured =
      [
        ("setup_s", scale setup_s);
        ("tune_s", scale (Proc.median (List.map (fun r -> r.tune_s) reps)));
        ("tuned_sim_ms", Proc.mean (List.map (fun r -> r.sim_ms) first));
        ("call_ms", scale (Proc.median calls));
        ("call_p90_ms", scale (Proc.quantile 0.9 calls));
        ( "ok_share",
          float_of_int (attempted - failed) /. float_of_int attempted );
        ("peak_rss_mb", Proc.median (List.map (fun r -> r.rss_mb) reps));
      ]
    in
    Fmt.pr "%s: %d repetitions, %d calls, seed %d@." w.name (List.length reps)
      (List.length calls) seed;
    Fmt.pr
      "host probe %.4f s (median of %d readings); timings are CPU time \
       scaled by %.3f s / probe@."
      probe_s (List.length !probes) probe_ref_s;
    Fmt.pr
      "tuned_sim_ms is simulated: the simulator is validated only against \
       this host's exec kernels (machine.sim_exec_rho in the traced run), \
       not against the paper's hardware@.";
    report
      (select end_to_end ~idle:[] measured)
      ~attempted ~failed ~correct
  end
  else begin
    (* untraced/traced pairs of the same repetition: the traced one gives
       the layer split, the pair ratio the tracing overhead *)
    let rec loop i acc =
      if i < 1 || Proc.now () -. started < seconds then begin
        let plain = Proc.in_child (fun () -> rep_of i) in
        let path = Filename.concat dir "trace.jsonl" in
        let tr = Proc.in_child (fun () -> traced (fun () -> rep_of i) ~path) in
        loop (i + 1) ((plain, tr) :: acc)
      end
      else List.rev acc
    in
    let pairs = loop 0 [] in
    let tr = snd (List.hd pairs) in
    let attempted, failed, correct =
      totals (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
    in
    let overhead =
      let ratios = List.map (fun (a, b) -> b.work_s /. a.work_s) pairs in
      100.0 *. (Proc.median ratios -. 1.0)
    in
    let measured =
      ("obs.overhead_pct", overhead)
      :: ("failed_share", float_of_int failed /. float_of_int attempted)
      :: tr.layers
    in
    Fmt.pr "%s: %d traced pairs, seed %d@." w.name (List.length pairs) seed;
    report
      (select per_layer ~idle:w.idle measured)
      ~attempted ~failed ~correct
  end
