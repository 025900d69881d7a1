(* Profiler micro-benchmark: throughput of Profiler.run with the
   line-granular fast engine vs the scalar interpreter, on two sets.

   - Tuned-style workloads: the shapes the paper tunes (conv2d / matmul /
     depthwise) at the layout+schedule configurations ALT's search
     converges to (channels-last, long contiguous innermost loops).
   - Explored candidates: the traffic the tuner actually sends.  A seeded
     set of template layouts x loop-space points for each of the eight
     op kinds the service accepts, at the service's default shapes and
     point budget; most of them are far from tuned, with strided and
     non-affine innermost loops among them.

   For every workload and candidate the two engines are also compared
   counter-by-counter and output by output (the differential oracle); any
   mismatch aborts the benchmark.  The explored set also times packing
   each candidate's input slots both ways, through the reference walk
   ([Layout.pack]) and through the compiled conversion kernel
   ([Kernel.pack], what measurement packs with), and aborts unless the
   two agree bit for bit.  Results go to BENCH_profiler.json so the perf
   trajectory is tracked across PRs.

   ALT_BENCH_SCALE=smoke|quick|full controls sizes and repetitions. *)

open Alt

let scale_name = Bench_util.scale_name
let pick = Bench_util.pick

type workload = {
  wname : string;
  op : Opdef.t;
  choice : Propagate.choice;
  schedule : Schedule.t;
}

(* Tuned-style schedule: a large tile on the innermost physical dimension,
   reductions hoisted outside the inner band (register blocking), inner
   band vectorized — the shape ALT's joint search converges to and the
   fast engine batches best. *)
let tuned_schedule ~rank ~nred ~tile =
  Schedule.default ~rank ~nred
  |> (fun s -> Schedule.split s ~dim:(rank - 1) ~inner:tile)
  |> (fun s -> Schedule.reorder_reduce_outer s true)
  |> Schedule.vectorize

let conv2d ~i ~o ~hw =
  let op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i ~o ~h:hw ~w:hw
      ~kh:3 ~kw:3 ()
  in
  {
    wname = Fmt.str "conv2d_%dx%dx%d" i o hw;
    op;
    choice = Templates.channels_last_choice op;
    schedule = tuned_schedule ~rank:4 ~nred:3 ~tile:(min o 32);
  }

let matmul ~m ~k ~n =
  let op = Ops.gmm ~name:"matmul" ~a:"A" ~b:"B" ~out:"Y" ~m ~k ~n () in
  {
    wname = Fmt.str "matmul_%dx%dx%d" m k n;
    op;
    choice = Templates.trivial_choice op;
    schedule = tuned_schedule ~rank:2 ~nred:1 ~tile:(min n 64);
  }

let depthwise ~c ~hw =
  let op =
    Ops.dep ~name:"dw" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c ~h:hw ~w:hw ~kh:3
      ~kw:3 ()
  in
  {
    wname = Fmt.str "depthwise_%dx%d" c hw;
    op;
    choice = Templates.trivial_choice op;
    schedule = tuned_schedule ~rank:4 ~nred:2 ~tile:(min hw 32);
  }

let workloads =
  pick
    ~smoke:
      [ conv2d ~i:8 ~o:16 ~hw:8; matmul ~m:16 ~k:32 ~n:32;
        depthwise ~c:8 ~hw:8 ]
    ~quick:
      [ conv2d ~i:32 ~o:32 ~hw:14; conv2d ~i:16 ~o:64 ~hw:28;
        matmul ~m:64 ~k:128 ~n:128; matmul ~m:128 ~k:64 ~n:256;
        depthwise ~c:32 ~hw:28 ]
    ~full:
      [ conv2d ~i:64 ~o:64 ~hw:28; conv2d ~i:32 ~o:128 ~hw:28;
        matmul ~m:128 ~k:256 ~n:256; matmul ~m:256 ~k:128 ~n:512;
        depthwise ~c:64 ~hw:56 ]

let min_time = pick ~smoke:0.02 ~quick:0.3 ~full:1.0

(* Time [f] for at least [min_time] seconds; returns runs/second. *)
let throughput f =
  f (); (* warm up *)
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int !reps /. !elapsed

let counters_of (r : Profiler.result) =
  [
    ("insts", r.Profiler.insts); ("loads", r.Profiler.loads);
    ("stores", r.Profiler.stores); ("flops", r.Profiler.flops);
    ("l1_accesses", r.Profiler.l1_accesses);
    ("l1_misses", r.Profiler.l1_misses); ("l2_misses", r.Profiler.l2_misses);
    ("scale", r.Profiler.scale);
  ]

(* Differential oracle: the two engines must agree counter-for-counter. *)
let assert_equal name (fast : Profiler.result) (scalar : Profiler.result) =
  List.iter2
    (fun (n, a) (_, b) ->
      if a <> b then
        Fmt.failwith "%s: fast/scalar diverge on %s: %h vs %h" name n a b)
    (counters_of fast) (counters_of scalar);
  if fast.Profiler.sampled <> scalar.Profiler.sampled then
    Fmt.failwith "%s: sampled flag diverges" name

let geomean = function
  | [] -> 1.0
  | xs ->
      Float.exp
        (List.fold_left (fun a x -> a +. Float.log x) 0.0 xs
        /. float_of_int (List.length xs))

type row = {
  rname : string;
  points : float;
  fast_rps : float;
  scalar_rps : float;
  fast_groups : int;
  scalar_groups : int;
}

let bench_workload machine (w : workload) : row =
  let task = Measure.make_task ~machine w.op in
  let prog =
    match Measure.program_of task w.choice w.schedule with
    | Some p -> p
    | None -> Fmt.failwith "%s: workload does not lower" w.wname
  in
  let bufs () = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  (* correctness first: identical counters, and the fast engine must
     actually engage on the hot loop (non-vacuous speedup claim) *)
  let es = Profiler.fresh_engine_stats () in
  let rf = Profiler.run ~machine ~engine:es prog ~bufs:(bufs ()) in
  let rs = Profiler.run ~machine ~fast:false prog ~bufs:(bufs ()) in
  assert_equal w.wname rf rs;
  if es.Profiler.fast_groups = 0 then
    Fmt.failwith "%s: fast engine did not engage" w.wname;
  let b = bufs () in
  let fast_rps =
    throughput (fun () ->
        ignore (Profiler.run ~machine prog ~bufs:b : Profiler.result))
  in
  let scalar_rps =
    throughput (fun () ->
        ignore
          (Profiler.run ~machine ~fast:false prog ~bufs:b : Profiler.result))
  in
  {
    rname = w.wname;
    points = Measure.program_points prog;
    fast_rps;
    scalar_rps;
    fast_groups = es.Profiler.fast_groups;
    scalar_groups = es.Profiler.scalar_groups;
  }

(* ------------------------------------------------------------------ *)
(* Explored candidates: the tuner's traffic                           *)
(* ------------------------------------------------------------------ *)

let service_kinds = [ "c2d"; "dil"; "grp"; "dep"; "c1d"; "c3d"; "gmm"; "t2d" ]
let per_kind = pick ~smoke:3 ~quick:24 ~full:64
let explored_seed = 2023
let explored_max_points = Workload.default_tune_spec.Workload.max_points

type candidate = {
  prog : Program.t;
  feeds : (string * float array) list;
  sim_points : float; (* points simulated under the budget *)
  fast_groups : int;
  scalar_groups : int;
}

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Seeded draws the way the tuner explores: template actions decoded to
   a layout, then a random point of that layout's loop space.  Each
   candidate that lowers runs once on each engine; counters and outputs
   must agree. *)
let explored_candidates machine kind =
  let op = Workload.op_of_spec { Workload.default_op with Workload.kind } in
  let tpl = Option.get (Templates.for_op op) in
  let task = Measure.make_task ~machine op in
  let rng = Random.State.make [| explored_seed; Hashtbl.hash kind |] in
  let nknobs = Array.length tpl.Templates.knobs in
  let rec draw acc n tries =
    if n = 0 || tries = 0 then List.rev acc
    else
      let actions = Array.init nknobs (fun _ -> Random.State.float rng 1.0) in
      let choice = tpl.Templates.decode actions in
      let space = Loopspace.of_layout op choice.Propagate.out_layout in
      let sched = Loopspace.decode space (Loopspace.random_point ~rng space) in
      match Measure.program_of task choice sched with
      | None -> draw acc n (tries - 1)
      | Some prog ->
          let feeds = task.Measure.feeds in
          let bufs () = Runtime.alloc_bufs prog ~inputs:feeds in
          let es = Profiler.fresh_engine_stats () in
          let bf = bufs () and bs = bufs () in
          let rf =
            Profiler.run ~machine ~max_points:explored_max_points ~engine:es
              prog ~bufs:bf
          in
          let rs =
            Profiler.run ~machine ~max_points:explored_max_points ~fast:false
              prog ~bufs:bs
          in
          let name = Fmt.str "%s candidate %d" kind (List.length acc) in
          assert_equal name rf rs;
          if not (Array.for_all2 bits_equal bf bs) then
            Fmt.failwith "%s: fast/scalar outputs diverge" name;
          let c =
            {
              prog;
              feeds;
              sim_points = Measure.program_points prog /. rf.Profiler.scale;
              fast_groups = es.Profiler.fast_groups;
              scalar_groups = es.Profiler.scalar_groups;
            }
          in
          draw (c :: acc) (n - 1) (tries - 1)
  in
  draw [] per_kind (20 * per_kind)

type explored_row = {
  kind : string;
  n : int;
  points : float; (* simulated points of one pass over the candidates *)
  fast_pps : float;
  scalar_pps : float;
  fgroups : int;
  sgroups : int;
  pack_reference_s : float; (* CPU time to pack every candidate's inputs *)
  pack_kernel_s : float;
}

let pack_repeats = pick ~smoke:2 ~quick:5 ~full:7

(* Best CPU time of [pack_repeats] calls of [f]. *)
let best_cpu f =
  let best = ref Float.infinity in
  for _ = 1 to pack_repeats do
    let t0 = Sys.time () in
    f ();
    best := Float.min !best (Sys.time () -. t0)
  done;
  !best

(* The candidates' input slots packed both ways: they must agree bit for
   bit, and each way's best CPU time for one pass over the set is kept. *)
let bench_packs kind cands =
  let inputs =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun (s : Program.slot) ->
            if s.Program.role = Program.Input then
              Some (s, List.assoc s.Program.sname c.feeds)
            else None)
          (Array.to_list c.prog.Program.slots))
      cands
  in
  List.iter
    (fun ((s : Program.slot), src) ->
      if
        not
          (bits_equal (Kernel.pack s.Program.layout src)
             (Layout.pack s.Program.layout src))
      then
        Fmt.failwith "%s: Kernel.pack / Layout.pack diverge on %s (%a)" kind
          s.Program.sname Layout.pp s.Program.layout)
    inputs;
  let pass pack () =
    List.iter
      (fun ((s : Program.slot), src) ->
        ignore (pack s.Program.layout src : float array))
      inputs
  in
  (best_cpu (pass Layout.pack), best_cpu (pass Kernel.pack))

let bench_explored machine kind =
  let cands = explored_candidates machine kind in
  let with_bufs =
    List.map (fun c -> (c, Runtime.alloc_bufs c.prog ~inputs:c.feeds)) cands
  in
  let pass fast () =
    List.iter
      (fun (c, bufs) ->
        ignore
          (Profiler.run ~machine ~max_points:explored_max_points ~fast c.prog
             ~bufs
            : Profiler.result))
      with_bufs
  in
  let points = List.fold_left (fun a c -> a +. c.sim_points) 0.0 cands in
  let pack_reference_s, pack_kernel_s = bench_packs kind cands in
  {
    kind;
    n = List.length cands;
    points;
    fast_pps = throughput (pass true) *. points;
    scalar_pps = throughput (pass false) *. points;
    fgroups = List.fold_left (fun a (c : candidate) -> a + c.fast_groups) 0 cands;
    sgroups =
      List.fold_left (fun a (c : candidate) -> a + c.scalar_groups) 0 cands;
    pack_reference_s;
    pack_kernel_s;
  }

(* Points per second over the whole set: total points over total time. *)
let set_pps rows pps =
  let points = List.fold_left (fun a r -> a +. r.points) 0.0 rows in
  points /. List.fold_left (fun a r -> a +. (r.points /. pps r)) 0.0 rows

let share a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

(* Microseconds to pack one candidate's input slots, over [rows]. *)
let pack_us rows secs =
  let n = List.fold_left (fun a r -> a + r.n) 0 rows in
  1e6 *. List.fold_left (fun a r -> a +. secs r) 0.0 rows
  /. float_of_int (max 1 n)

let json_of_explored rows =
  let fg = List.fold_left (fun a r -> a + r.fgroups) 0 rows
  and sg = List.fold_left (fun a r -> a + r.sgroups) 0 rows in
  let row r =
    Fmt.str
      "{\"kind\": %S, \"candidates\": %d, \"points\": %.0f, \
       \"fast_points_per_s\": %.0f, \"scalar_points_per_s\": %.0f, \
       \"speedup\": %.3f, \"fast_groups\": %d, \"scalar_groups\": %d, \
       \"pack_reference_us\": %.1f, \"pack_kernel_us\": %.1f}"
      r.kind r.n r.points r.fast_pps r.scalar_pps (r.fast_pps /. r.scalar_pps)
      r.fgroups r.sgroups
      (pack_us [ r ] (fun r -> r.pack_reference_s))
      (pack_us [ r ] (fun r -> r.pack_kernel_s))
  in
  Fmt.str
    "{\"seed\": %d, \"max_points\": %d, \"candidates\": %d, \
     \"fast_points_per_s\": %.0f, \"scalar_points_per_s\": %.0f, \
     \"fast_group_share\": %.4f, \"scalar_group_share\": %.4f, \
     \"pack_reference_us\": %.1f, \"pack_kernel_us\": %.1f, \
     \"kinds\": [\n    %s\n  ]}"
    explored_seed explored_max_points
    (List.fold_left (fun a r -> a + r.n) 0 rows)
    (set_pps rows (fun r -> r.fast_pps))
    (set_pps rows (fun r -> r.scalar_pps))
    (share fg sg) (share sg fg)
    (pack_us rows (fun r -> r.pack_reference_s))
    (pack_us rows (fun r -> r.pack_kernel_s))
    (String.concat ",\n    " (List.map row rows))

let json_of_rows machine rows explored =
  let b = Stdlib.Buffer.create 1024 in
  let add = Stdlib.Buffer.add_string b in
  add "{\n";
  add (Fmt.str "  \"scale\": %S,\n" scale_name);
  add (Fmt.str "  \"machine\": %S,\n" machine.Machine.name);
  add (Fmt.str "  %s,\n" (Bench_util.provenance_json ()));
  add "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      add
        (Fmt.str
           "    {\"name\": %S, \"points\": %.0f, \"fast_runs_per_s\": %.3f, \
            \"scalar_runs_per_s\": %.3f, \"fast_points_per_s\": %.0f, \
            \"scalar_points_per_s\": %.0f, \"speedup\": %.3f, \
            \"fast_groups\": %d, \"scalar_groups\": %d}%s\n"
           r.rname r.points r.fast_rps r.scalar_rps (r.fast_rps *. r.points)
           (r.scalar_rps *. r.points)
           (r.fast_rps /. r.scalar_rps)
           r.fast_groups r.scalar_groups
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  add "  ],\n";
  let speedups = List.map (fun r -> r.fast_rps /. r.scalar_rps) rows in
  let core =
    List.filter_map
      (fun r ->
        let is_core =
          String.length r.rname >= 4
          && (String.sub r.rname 0 4 = "conv" || String.sub r.rname 0 4 = "matm")
        in
        if is_core then Some (r.fast_rps /. r.scalar_rps) else None)
      rows
  in
  add (Fmt.str "  \"geomean_speedup\": %.3f,\n" (geomean speedups));
  add
    (Fmt.str "  \"geomean_speedup_conv_matmul\": %.3f,\n" (geomean core));
  add (Fmt.str "  \"explored\": %s\n" (json_of_explored explored));
  add "}\n";
  Stdlib.Buffer.contents b

let () =
  let machine = Machine.intel_cpu in
  Fmt.pr "profiler micro-benchmark (scale=%s, machine=%s)@." scale_name
    machine.Machine.name;
  let rows = List.map (bench_workload machine) workloads in
  List.iter
    (fun r ->
      Fmt.pr
        "%-22s %10.0f pts  fast %8.1f runs/s  scalar %8.1f runs/s  %6.2fx@."
        r.rname r.points r.fast_rps r.scalar_rps
        (r.fast_rps /. r.scalar_rps))
    rows;
  let speedups = List.map (fun r -> r.fast_rps /. r.scalar_rps) rows in
  Fmt.pr "geomean speedup: %.2fx@." (geomean speedups);
  Fmt.pr "explored candidates (seed %d, max_points %d):@." explored_seed
    explored_max_points;
  let explored = List.map (bench_explored machine) service_kinds in
  List.iter
    (fun r ->
      Fmt.pr
        "%-4s %3d cands %9.0f pts  fast %6.1f Mpts/s  scalar %6.1f Mpts/s  \
         groups %d fast / %d scalar@."
        r.kind r.n r.points (r.fast_pps /. 1e6) (r.scalar_pps /. 1e6) r.fgroups
        r.sgroups)
    explored;
  let fg = List.fold_left (fun a r -> a + r.fgroups) 0 explored
  and sg = List.fold_left (fun a r -> a + r.sgroups) 0 explored in
  Fmt.pr "explored set: fast %.1f Mpts/s, scalar %.1f Mpts/s, %.1f%% of \
          groups on the scalar path@."
    (set_pps explored (fun r -> r.fast_pps) /. 1e6)
    (set_pps explored (fun r -> r.scalar_pps) /. 1e6)
    (100.0 *. share sg fg);
  List.iter
    (fun r ->
      Fmt.pr "%-4s pack per candidate: reference %8.1f us, kernel %8.1f us@."
        r.kind
        (pack_us [ r ] (fun r -> r.pack_reference_s))
        (pack_us [ r ] (fun r -> r.pack_kernel_s)))
    explored;
  Fmt.pr "explored set packs: reference %.1f us, kernel %.1f us per candidate@."
    (pack_us explored (fun r -> r.pack_reference_s))
    (pack_us explored (fun r -> r.pack_kernel_s));
  let json = json_of_rows machine rows explored in
  Bench_util.write_bench "BENCH_profiler.json" json
