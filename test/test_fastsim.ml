(* Fast-path simulation engine tests (DESIGN.md §9).

   The engine's contract is *bit-identical counters and outputs* to the
   element-wise scalar interpreter, so the core of this suite is
   differential: random layout choices and random loop-space points are
   run through both engines on the three machine profiles, and on a
   machine with tiny caches whose evictions make LRU order decide later
   misses, and every counter is compared with [=] (no tolerance).  Every
   buffer but the inputs starts as NaN on both sides and outputs are
   compared by their bits, so an element one engine skips shows.
   Directed nests put each obligation of the span walk and the chain
   walker on the line (any stride, spills inside spans, accumulator
   residency, chains that stop at div/mod).  The Cache bulk entry points
   are additionally checked at the state level ([Cache.dump]). *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Program = Alt_ir.Program
module Lower = Alt_ir.Lower
module Sexpr = Alt_ir.Sexpr
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

(* Two L1 sets of two ways, eight L2 sets of two ways: nearly every span
   installs and evicts, and the order of its touches decides the next
   victim. *)
let tiny_cpu =
  {
    Machine.intel_cpu with
    Machine.name = "tiny-cpu";
    l1 = { Cache.size_bytes = 256; assoc = 2; line_bytes = 64 };
    l2 = { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 };
  }

let machines = [ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]
let all_machines = machines @ [ tiny_cpu ]

(* ------------------------------------------------------------------ *)
(* Cache bulk entry points                                            *)
(* ------------------------------------------------------------------ *)

let cache_cfg = { Cache.size_bytes = 1024; assoc = 4; line_bytes = 64 }

let same_state a b =
  (* stamps must match exactly: the bulk entry points promise the same
     clock arithmetic as the element-wise calls, not just the same
     recency order *)
  Cache.dump a = Cache.dump b

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

(* Every element, NaN included, compared by its bits. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Inputs packed from [inputs], every other buffer NaN. *)
let poisoned_bufs prog ~inputs =
  let bufs = Runtime.alloc_bufs prog ~inputs in
  Array.iteri
    (fun i (s : Program.slot) ->
      if s.Program.role <> Program.Input then
        Array.fill bufs.(i) 0 (Array.length bufs.(i)) Float.nan)
    prog.Program.slots;
  bufs

(* One program through both engines on one machine, from NaN-poisoned
   buffers: counters and every buffer must be bit-identical.  Returns
   the fast engine's coverage too. *)
let prog_differential ?max_points machine prog ~inputs =
  let bf = poisoned_bufs prog ~inputs and bs = poisoned_bufs prog ~inputs in
  let es = Profiler.fresh_engine_stats () in
  let rf = Profiler.run ~machine ?max_points ~engine:es prog ~bufs:bf in
  let rs = Profiler.run ~machine ?max_points ~fast:false prog ~bufs:bs in
  (results_equal rf rs && Array.for_all2 bits_equal bf bs, es)

(* run one (choice, schedule) candidate through both engines on one
   machine *)
let differential ?max_points machine op (choice : Propagate.choice) sched =
  let task = Measure.make_task ~machine op in
  match Measure.program_of task choice sched with
  | None -> true (* candidate does not lower; nothing to compare *)
  | Some prog ->
      fst
        (prog_differential ?max_points machine prog ~inputs:task.Measure.feeds)

(* Layouts from the op's tuning template (the layout zoo for ops without
   one), schedules from the loop space of the decoded layout. *)
let prop_differential ?(count = 25) ?(machines = machines) op name =
  let tpl = Templates.for_op op in
  let zoo = Array.of_list (Templates.layout_zoo op) in
  let nactions =
    match tpl with Some t -> Array.length t.Templates.knobs | None -> 0
  in
  QCheck2.Test.make ~count ~name
    QCheck2.Gen.(
      triple
        (array_size (return nactions) (float_bound_exclusive 1.0))
        (int_bound (Array.length zoo - 1))
        (array_size (return 32) (float_bound_exclusive 1.0)))
    (fun (actions, z, point) ->
      let choice =
        match tpl with Some t -> t.Templates.decode actions | None -> zoo.(z)
      in
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
  prop_differential ~count:8 op (kind ^ ": fast == scalar (3 machines)")

(* The pools and row reductions: their Max and Sum inits are constant
   stores, strided whenever the reduced tile is not physically
   innermost. *)
let reduction_ops =
  [
    Ops.maxpool2d ~name:"maxpool2d" ~inp:"X" ~out:"Y" ~n:1 ~c:8 ~h:4 ~w:4 ~k:3
      ();
    Ops.rowmax ~name:"rowmax" ~inp:"X" ~out:"Y" ~lead:[| 6; 8 |] ~n:12 ();
    Ops.global_avgpool ~name:"global_avgpool" ~inp:"X" ~out:"Y" ~n:1 ~c:8
      ~h:4 ~w:4 ();
  ]

let prop_reduction op =
  prop_differential ~count:12 ~machines:all_machines op
    (op.Opdef.name ^ ": fast == scalar (4 machines)")

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

(* ------------------------------------------------------------------ *)
(* Directed nests                                                     *)
(* ------------------------------------------------------------------ *)

(* Hand-built nests over 1-D buffers: [ix [(k, v); ...] c] is the offset
   [c + Σ k·v]. *)
let ix terms c =
  Ixexpr.sum
    (Ixexpr.const c
    :: List.map (fun (k, v) -> Ixexpr.mul (Ixexpr.const k) (Ixexpr.var v)) terms)

let at slot terms c = { Program.slot; idx = [| ix terms c |] }
let load slot terms c = Program.Pload (at slot terms c)

let for_ v extent body =
  Program.For ({ Program.v; extent; kind = Program.Serial }, body)

(* Slots in base-address order (each starts on a fresh line, one line
   after the previous one ends); inputs random. *)
let nest slots body =
  let prog =
    {
      Program.pname = "directed";
      body;
      slots =
        Array.of_list
          (List.map
             (fun (sname, n, role) ->
               { Program.sname; layout = Layout.create [| n |]; role })
             slots);
      flops = 0;
    }
  in
  let inputs =
    List.filter_map
      (fun (name, n, role) ->
        if role = Program.Input then
          Some (name, Buffer.random ~seed:(Hashtbl.hash name) [| n |])
        else None)
      slots
  in
  (prog, inputs)

(* fast == scalar bit for bit on every machine, with every leaf group on
   the fast path *)
let check_directed label (prog, inputs) =
  List.iter
    (fun (m : Machine.t) ->
      let same, es = prog_differential m prog ~inputs in
      let what = Fmt.str "%s on %s" label m.Machine.name in
      Alcotest.(check bool) (what ^ ": fast == scalar, bitwise") true same;
      Alcotest.(check bool) (what ^ ": fast path engaged") true
        (es.Profiler.fast_groups > 0);
      Alcotest.(check int) (what ^ ": no scalar group") 0
        es.Profiler.scalar_groups)
    all_machines

(* (a) Strides below the line: loads move 12 and 8 bytes per iteration,
   so their line crossings cut spans at uneven points, and a Reduce whose
   accumulator moves 8 bytes per iteration spills inside them. *)
let strides_below () =
  let j = Var.fresh "j" and i = Var.fresh "i" and r = Var.fresh "r" in
  nest
    [ ("X", 200, Program.Input); ("Y", 64, Program.Output);
      ("Z", 40, Program.Output) ]
    (Program.Block
       [
         for_ j 4
           (for_ i 16
              (Program.Store
                 ( at 1 [ (16, j); (1, i) ] 0,
                   Program.Pbin
                     ( Sexpr.Badd,
                       load 0 [ (48, j); (3, i) ] 0,
                       load 0 [ (2, i) ] 5 ) )));
         for_ r 3
           (for_ i 16
              (Program.Reduce
                 (at 2 [ (2, i) ] 0, Program.Rsum, load 0 [ (5, i); (1, r) ] 0)));
       ])

(* (b) Strides at and above the line on the CPU profiles (64 and 68
   bytes), below it on the GPU's 128-byte lines: every span is one
   iteration long there. *)
let strides_above () =
  let j = Var.fresh "j" and i = Var.fresh "i" in
  nest
    [ ("X", 160, Program.Input); ("Y", 24, Program.Output) ]
    (for_ j 3
       (for_ i 8
          (Program.Store
             ( at 1 [ (8, j); (1, i) ] 0,
               Program.Pbin
                 ( Sexpr.Bmul,
                   load 0 [ (17, i); (1, j) ] 0,
                   load 0 [ (16, i); (1, j) ] 0 ) ))))

(* (c) Negative strides: a transposed convolution reads its kernel
   flipped, and a hand-built copy walks its source backwards across
   lines. *)
let t2d_negative () =
  let op =
    Ops.t2d ~name:"t" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
      ~kh:3 ~kw:3 ()
  in
  let task = Measure.make_task ~machine:Machine.intel_cpu op in
  let sched = Schedule.default ~rank:4 ~nred:3 in
  ( Option.get
      (Measure.program_of task (Templates.trivial_choice op) sched),
    task.Measure.feeds )

let backwards () =
  let j = Var.fresh "j" and i = Var.fresh "i" in
  nest
    [ ("X", 100, Program.Input); ("Y", 48, Program.Output) ]
    (for_ j 3
       (for_ i 16
          (Program.Store
             (at 1 [ (16, j); (1, i) ] 0, load 0 [ (-5, i); (1, j) ] 90))))

(* (d) A spill period K that is not a multiple of the innermost extent:
   the accumulator tile is 16 wide and reused across the 3 iterations of
   the loop above it, so it spills every 3 iterations and its last spill
   in a span lands mid-span. *)
let spill_mid_span () =
  let r = Var.fresh "r" and i = Var.fresh "i" in
  nest
    [ ("Y", 16, Program.Output); ("X", 48, Program.Input);
      ("W", 48, Program.Input) ]
    (for_ r 3
       (for_ i 16
          (Program.Reduce
             ( at 0 [ (1, i) ] 0,
               Program.Rsum,
               Program.Pbin
                 ( Sexpr.Bmul,
                   load 1 [ (16, r); (1, i) ] 0,
                   load 2 [ (16, r); (1, i) ] 0 ) ))))

(* (e) The accumulator's line evicted by an iteration-one access: on the
   tiny L1 (two sets), Y's line and the X and W lines of every even r
   share a set, so the first iteration's two misses evict Y's line, which
   the spills later in the same span then miss. *)
let acc_evicted () =
  let r = Var.fresh "r" and i = Var.fresh "i" in
  nest
    [ ("Y", 16, Program.Output); ("X", 80, Program.Input);
      ("W", 80, Program.Input) ]
    (for_ r 5
       (for_ i 16
          (Program.Reduce
             ( at 0 [ (1, i) ] 0,
               Program.Rsum,
               Program.Pbin
                 ( Sexpr.Badd,
                   load 1 [ (16, r); (1, i) ] 0,
                   load 2 [ (16, r); (1, i) ] 0 ) ))))

(* (f) Chains: a conversion out of a split layout, whose outer loop
   reaches the source only through div/mod, so its chain stops below
   that loop; and a three-deep nest whose chain of two levels must
   rewind the inner level's bases before the outer one advances. *)
let chain_below_divmod () =
  let shape = [| 8; 6; 4 |] in
  let src = Layout.split (Layout.create shape) ~dim:0 ~factors:[ 2; 4 ] in
  ( Lower.conversion ~src ~dst:(Layout.create shape) (),
    [ ("convert.src", Buffer.random ~seed:7 shape) ] )

let chain_two_levels () =
  let k = Var.fresh "k" and j = Var.fresh "j" and i = Var.fresh "i" in
  nest
    [ ("X", 300, Program.Input); ("Y", 96, Program.Output) ]
    (for_ k 2
       (for_ j 3
          (for_ i 16
             (Program.Store
                ( at 1 [ (48, k); (16, j); (1, i) ] 0,
                  load 0 [ (7, k); (50, j); (2, i) ] 3 )))))

(* (g) A multiply-accumulate whose operand reads its own accumulator,
   which the shared leaf compiler must not hoist or keep in a register:
   a scalar accumulator, [Y[0] = 0.5; for i: Y[0] += Y[0] * W[i]], and a
   moving one, [for j: Y[j] = X[j]; for i: Y[i] += Y[0] * W[i]], whose
   first iteration updates the operand the rest read; [~swap] makes the
   aliased operand the second one. *)
let mac_alias ~moving ~swap () =
  let j = Var.fresh "j" and i = Var.fresh "i" in
  let y0 = load 0 [] 0 and w = load 1 [ (1, i) ] 0 in
  nest
    [ ("Y", 13, Program.Output); ("W", 13, Program.Input);
      ("X", 13, Program.Input) ]
    (Program.Block
       [
         (if moving then
            for_ j 13 (Program.Store (at 0 [ (1, j) ] 0, load 2 [ (1, j) ] 0))
          else Program.Store (at 0 [] 0, Program.Pconst 0.5));
         for_ i 13
           (Program.Reduce
              ( at 0 (if moving then [ (1, i) ] else []) 0,
                Program.Rsum,
                Program.Pbin
                  (Sexpr.Bmul, (if swap then w else y0), if swap then y0 else w)
              ));
       ])

let directed_cases =
  List.map
    (fun (label, nest) ->
      Alcotest.test_case label `Quick (fun () -> check_directed label (nest ())))
    [
      ("(a) strides below the line", strides_below);
      ("(b) strides at and above the line", strides_above);
      ("(c) negative strides: t2d", t2d_negative);
      ("(c) negative strides: backwards copy", backwards);
      ("(d) last spill mid-span", spill_mid_span);
      ("(e) accumulator evicted in iteration one", acc_evicted);
      ("(f) chain stops at div/mod", chain_below_divmod);
      ("(f) chain of two levels", chain_two_levels);
      ("(g) MAC: 1st operand aliases a scalar accumulator",
       mac_alias ~moving:false ~swap:false);
      ("(g) MAC: 2nd operand aliases a scalar accumulator",
       mac_alias ~moving:false ~swap:true);
      ("(g) MAC: 1st operand aliases a moving accumulator",
       mac_alias ~moving:true ~swap:false);
      ("(g) MAC: 2nd operand aliases a moving accumulator",
       mac_alias ~moving:true ~swap:true);
    ]

(* The profiler publishes the deltas of the caller's [engine] record:
   groups are counted while compiling, so the snapshot must come before
   it.  A convolution runs batched; zero padding reads through a select
   (a scalar group). *)
let test_engine_metrics () =
  let module M = Alt_obs.Metrics in
  let machine = Machine.intel_cpu in
  let pad =
    Ops.pad2d ~name:"p" ~inp:"X" ~out:"Y" ~n:1 ~c:4 ~h:6 ~w:6 ~pad:1 ()
  in
  let progs =
    List.map
      (fun (op, rank, nred) ->
        let task = Measure.make_task ~machine op in
        ( Option.get
            (Measure.program_of task (Templates.trivial_choice op)
               (Schedule.default ~rank ~nred)),
          task.Measure.feeds ))
      [ (conv_op, 4, 3); (pad, 4, 0) ]
  in
  let names =
    [ "profiler.fast_groups"; "profiler.scalar_groups";
      "profiler.fast_loop_runs"; "profiler.scalar_loop_runs" ]
  in
  let read () = List.map (fun n -> M.counter_value (M.counter n)) names in
  let es = Profiler.fresh_engine_stats () in
  let was = M.enabled () in
  M.enable ();
  let before = read () in
  List.iter
    (fun (prog, inputs) ->
      let bufs = Runtime.alloc_bufs prog ~inputs in
      ignore (Profiler.run ~machine ~engine:es prog ~bufs : Profiler.result))
    progs;
  let after = read () in
  if not was then M.disable ();
  let deltas = List.map2 ( - ) after before in
  Alcotest.(check (list int)) "registry deltas = engine record"
    [ es.Profiler.fast_groups; es.Profiler.scalar_groups;
      es.Profiler.fast_runs; es.Profiler.scalar_runs ]
    deltas;
  Alcotest.(check bool) "both engines ran" true
    (es.Profiler.fast_groups > 0 && es.Profiler.scalar_groups > 0)

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
            prop_differential conv_op "conv2d: fast == scalar (3 machines)";
            prop_differential gmm_op "matmul: fast == scalar (3 machines)";
            prop_differential ~machines:[ tiny_cpu ] conv_op
              "conv2d: fast == scalar (tiny caches)";
            prop_differential ~count:400 ~machines:[ tiny_cpu ] gmm_op
              "matmul: fast == scalar (tiny caches)";
          ]
        @ qsuite
            (List.map prop_differential_kind
               [ "dep"; "c1d"; "grp"; "t2d"; "dil"; "c3d" ])
        @ qsuite (List.map prop_reduction reduction_ops)
        @ [
            Alcotest.test_case "fast engine engages" `Quick test_engagement;
            Alcotest.test_case "sampling rescales identically" `Quick
              test_sampling;
            Alcotest.test_case "engine metrics = engine record" `Quick
              test_engine_metrics;
          ] );
      ("directed", directed_cases);
    ]
