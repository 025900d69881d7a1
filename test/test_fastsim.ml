(* Fast-path simulation engine tests (DESIGN.md §9).

   The engine's contract is *bit-identical counters and outputs* to the
   element-wise scalar interpreter, so the core of this suite is
   differential: random layout choices and random loop-space points are
   run through both engines on all three machine profiles and every
   counter is compared with [=] (no tolerance).  The Cache bulk entry
   points are additionally checked at the state level ([Cache.dump]). *)


module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Ops = Alt_graph.Ops
module Propagate = Alt_graph.Propagate
module Cache = Alt_machine.Cache
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Templates = Alt_tuner.Templates
module Loopspace = Alt_tuner.Loopspace
module Measure = Alt_tuner.Measure
module Workload = Alt_serve.Workload

let machines = [ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]

(* ------------------------------------------------------------------ *)
(* Cache bulk entry points                                            *)
(* ------------------------------------------------------------------ *)

let cache_cfg = { Cache.size_bytes = 1024; assoc = 4; line_bytes = 64 }

let same_state a b =
  let ta, sa = Cache.dump a and tb, sb = Cache.dump b in
  (* stamps must match exactly: the bulk entry points promise the same
     clock arithmetic as the element-wise calls, not just the same
     recency order *)
  ta = tb && sa = sb

let stats_eq (a : Cache.stats) (b : Cache.stats) =
  a.Cache.accesses = b.Cache.accesses
  && a.Cache.hits = b.Cache.hits
  && a.Cache.misses = b.Cache.misses
  && a.Cache.prefetch_installs = b.Cache.prefetch_installs
  && a.Cache.prefetch_hits = b.Cache.prefetch_hits

(* access_run n == n consecutive accesses to the same address, for any
   interleaving with other traffic *)
let prop_access_run =
  QCheck2.Test.make ~count:200 ~name:"Cache.access_run == n * access"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (pair (int_range 0 4096) (int_range 1 5)))
    (fun trace ->
      let c1 = Cache.create cache_cfg and c2 = Cache.create cache_cfg in
      List.iter
        (fun (addr, n) ->
          for _ = 1 to n do
            ignore (Cache.access c1 addr : bool)
          done;
          ignore (Cache.access_run c2 addr n : int))
        trace;
      same_state c1 c2 && stats_eq (Cache.stats c1) (Cache.stats c2))

(* touch_run replays hits on a resident way exactly *)
let prop_touch_run =
  QCheck2.Test.make ~count:200 ~name:"Cache.touch_run == n * access (hits)"
    QCheck2.Gen.(
      pair (int_range 0 4096) (pair (int_range 1 6) (int_range 1 32)))
    (fun (addr, (n, warm)) ->
      let c1 = Cache.create cache_cfg and c2 = Cache.create cache_cfg in
      for _ = 1 to warm do
        ignore (Cache.access c1 addr : bool);
        ignore (Cache.access c2 addr : bool)
      done;
      (let way = Cache.slot_of (Cache.access_way c2 addr) in
       ignore (Cache.access c1 addr : bool);
       Cache.touch_run c2 way n;
       for _ = 1 to n do
         ignore (Cache.access c1 addr : bool)
       done);
      same_state c1 c2 && stats_eq (Cache.stats c1) (Cache.stats c2))

let test_prefetch_stats () =
  let c = Cache.create cache_cfg in
  ignore (Cache.access c 0 : bool);
  (* demand miss *)
  ignore (Cache.prefetch c 64 : bool);
  ignore (Cache.prefetch c 128 : bool);
  let st = Cache.stats c in
  Alcotest.(check int) "prefetch installs" 2 st.Cache.prefetch_installs;
  Alcotest.(check int) "no prefetch hits yet" 0 st.Cache.prefetch_hits;
  ignore (Cache.access c 64 : bool);
  ignore (Cache.access c 80 : bool);
  (* same line: bit already cleared *)
  ignore (Cache.access c 128 : bool);
  let st = Cache.stats c in
  Alcotest.(check int) "prefetch hits counted once per line" 2
    st.Cache.prefetch_hits;
  Alcotest.(check int) "demand misses" 1 st.Cache.misses

(* ------------------------------------------------------------------ *)
(* Differential: fast engine == scalar interpreter                    *)
(* ------------------------------------------------------------------ *)

let conv_op =
  Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let gmm_op = Ops.gmm ~name:"g" ~a:"A" ~b:"B" ~out:"Y" ~m:6 ~k:12 ~n:16 ()

let results_equal (a : Profiler.result) (b : Profiler.result) =
  a.Profiler.insts = b.Profiler.insts
  && a.Profiler.loads = b.Profiler.loads
  && a.Profiler.stores = b.Profiler.stores
  && a.Profiler.flops = b.Profiler.flops
  && a.Profiler.l1_accesses = b.Profiler.l1_accesses
  && a.Profiler.l1_misses = b.Profiler.l1_misses
  && a.Profiler.l2_misses = b.Profiler.l2_misses
  && a.Profiler.parallel_extent = b.Profiler.parallel_extent
  && a.Profiler.cycles = b.Profiler.cycles
  && a.Profiler.latency_ms = b.Profiler.latency_ms
  && a.Profiler.sampled = b.Profiler.sampled
  && a.Profiler.scale = b.Profiler.scale

let bufs_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

(* run one (choice, schedule) candidate through both engines on one
   machine; counters and every output buffer must be bit-identical *)
let differential ?max_points machine op (choice : Propagate.choice) sched =
  let task = Measure.make_task ~machine op in
  match Measure.program_of task choice sched with
  | None -> true (* candidate does not lower; nothing to compare *)
  | Some prog ->
      let bufs () = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
      let bf = bufs () and bs = bufs () in
      let rf = Profiler.run ~machine ?max_points ~fast:true prog ~bufs:bf in
      let rs = Profiler.run ~machine ?max_points ~fast:false prog ~bufs:bs in
      results_equal rf rs && Array.for_all2 bufs_equal bf bs

let prop_differential ?(count = 25) op nactions name =
  QCheck2.Test.make ~count ~name
    QCheck2.Gen.(
      pair
        (array_size (return nactions) (float_bound_exclusive 1.0))
        (array_size (return 32) (float_bound_exclusive 1.0)))
    (fun (actions, point) ->
      let tpl = Option.get (Templates.for_op op) in
      let choice = tpl.Templates.decode actions in
      (* the loop-space dimension depends on the decoded layout's rank *)
      let space = Loopspace.of_layout op choice.Propagate.out_layout in
      let sched = Loopspace.decode space (Array.sub point 0 (Loopspace.dim space)) in
      List.for_all (fun m -> differential m op choice sched) machines)

(* Every other operator kind the service accepts, at small shapes:
   depthwise, grouped, dilated, transposed (negative input strides), 1-D
   and 3-D accesses all go through the fast engine's base refresh. *)
let prop_differential_kind kind =
  let op =
    Workload.op_of_spec
      { Workload.default_op with kind; channels = 4; out_channels = 4;
        spatial = 4 }
  in
  let tpl = Option.get (Templates.for_op op) in
  prop_differential ~count:8 op
    (Array.length tpl.Templates.knobs)
    (kind ^ ": fast == scalar (3 machines)")

(* the tuned-style shape the bench uses: fast path must both engage and
   agree (guards the ">= 5x on a vacuous loop" failure mode) *)
let test_engagement () =
  let choice = Templates.channels_last_choice conv_op in
  let sched =
    let s = Schedule.default ~rank:4 ~nred:3 in
    let s = Schedule.split s ~dim:3 ~inner:8 in
    let s = Schedule.reorder_reduce_outer s true in
    Schedule.vectorize s
  in
  let machine = Machine.intel_cpu in
  let task = Measure.make_task ~machine conv_op in
  let prog = Option.get (Measure.program_of task choice sched) in
  let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  let es = Profiler.fresh_engine_stats () in
  let _ = Profiler.run ~machine ~fast:true ~engine:es prog ~bufs in
  Alcotest.(check bool)
    "fast engine engaged" true
    (es.Profiler.fast_groups > 0 && es.Profiler.fast_runs > 0);
  let es0 = Profiler.fresh_engine_stats () in
  let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  let _ = Profiler.run ~machine ~fast:false ~engine:es0 prog ~bufs in
  Alcotest.(check int) "fast=false never batches" 0 es0.Profiler.fast_groups

(* sampling: when the point budget truncates outer loops, the fast path
   must rescale identically (same [sampled], same [scale], same counters) *)
let test_sampling () =
  let op =
    Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8 ~o:16 ~h:10
      ~w:10 ~kh:3 ~kw:3 ()
  in
  let choice = Templates.channels_last_choice op in
  let sched =
    let s = Schedule.default ~rank:4 ~nred:3 in
    let s = Schedule.split s ~dim:3 ~inner:16 in
    let s = Schedule.reorder_reduce_outer s true in
    Schedule.vectorize s
  in
  let machine = Machine.intel_cpu in
  let task = Measure.make_task ~machine op in
  let prog = Option.get (Measure.program_of task choice sched) in
  let run fast =
    let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
    Profiler.run ~machine ~max_points:20_000 ~fast prog ~bufs
  in
  let rf = run true and rs = run false in
  Alcotest.(check bool) "sampling engaged" true rf.Profiler.sampled;
  Alcotest.(check bool) "sampled flag equal" rs.Profiler.sampled
    rf.Profiler.sampled;
  Alcotest.(check (float 0.0)) "scale equal" rs.Profiler.scale
    rf.Profiler.scale;
  Alcotest.(check bool) "sampled counters equal" true (results_equal rf rs)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "alt_fastsim"
    [
      ( "cache-bulk",
        qsuite [ prop_access_run; prop_touch_run ]
        @ [ Alcotest.test_case "prefetch stats" `Quick test_prefetch_stats ] );
      ( "differential",
        qsuite
          [
            prop_differential conv_op 6 "conv2d: fast == scalar (3 machines)";
            prop_differential gmm_op 3 "matmul: fast == scalar (3 machines)";
          ]
        @ qsuite
            (List.map prop_differential_kind
               [ "dep"; "c1d"; "grp"; "t2d"; "dil"; "c3d" ])
        @ [
            Alcotest.test_case "fast engine engages" `Quick test_engagement;
            Alcotest.test_case "sampling rescales identically" `Quick
              test_sampling;
          ] );
    ]
