(* Machine-model invariants: determinism, monotonicity of the latency
   model, counter consistency between machines, and sampling extrapolation
   on programs where exact counters are known. *)

open Alt_tensor
module Schedule = Alt_ir.Schedule
module Lower = Alt_ir.Lower
module Ops = Alt_graph.Ops
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Opdef = Alt_ir.Opdef

let trivial shape = Layout.create shape

let gmm_prog ?(vec = false) ?(par = 0) () =
  let op = Ops.gmm ~name:"g" ~a:"A" ~b:"B" ~out:"C" ~m:16 ~k:16 ~n:16 () in
  let s = Schedule.default ~rank:2 ~nred:1 in
  let s = if vec then Schedule.vectorize s else s in
  let s = Schedule.parallel s par in
  let prog =
    Lower.lower ~op
      ~layouts:(fun n -> trivial (if n = "A" then [| 16; 16 |] else [| 16; 16 |]))
      ~out_layout:(trivial [| 16; 16 |])
      ~schedule:s ()
  in
  (op, prog)

let run_prog ?machine prog =
  let inputs =
    [ ("A", Buffer.random ~seed:1 [| 16; 16 |]); ("B", Buffer.random ~seed:2 [| 16; 16 |]) ]
  in
  Runtime.run_logical ?machine prog ~inputs

let test_determinism () =
  let _, prog = gmm_prog () in
  let _, r1 = run_prog prog in
  let _, r2 = run_prog prog in
  Alcotest.(check (float 0.0)) "latency deterministic" r1.Profiler.latency_ms
    r2.Profiler.latency_ms;
  Alcotest.(check (float 0.0)) "misses deterministic" r1.Profiler.l1_misses
    r2.Profiler.l1_misses

let test_flops_exact () =
  (* GMM 16x16x16: mul+add per MAC -> 2*16^3 flops *)
  let _, prog = gmm_prog () in
  let _, r = run_prog prog in
  Alcotest.(check (float 0.0)) "flops" (2.0 *. (16.0 ** 3.0)) r.Profiler.flops

let test_machines_differ () =
  let _, prog = gmm_prog ~vec:true () in
  let lats =
    List.map
      (fun m ->
        let _, r = run_prog ~machine:m prog in
        r.Profiler.latency_ms)
      Machine.all
  in
  (* three distinct profiles should give three distinct latencies *)
  Alcotest.(check int) "distinct" 3
    (List.length (List.sort_uniq Float.compare lats))

let test_latency_positive_and_finite () =
  List.iter
    (fun m ->
      let _, prog = gmm_prog ~vec:true ~par:1 () in
      let _, r = run_prog ~machine:m prog in
      Alcotest.(check bool)
        (m.Machine.name ^ " positive")
        true
        (Float.is_finite r.Profiler.latency_ms && r.Profiler.latency_ms > 0.0))
    Machine.all

let test_register_promotion () =
  (* with reduction innermost, the accumulator must not dominate stores:
     output stores should be near one per output element *)
  let _, prog = gmm_prog () in
  let _, r = run_prog prog in
  Alcotest.(check bool)
    (Fmt.str "stores %.0f < 3x outputs" r.Profiler.stores)
    true
    (r.Profiler.stores < 3.0 *. 256.0)

let test_sampling_scale_bounds () =
  let op =
    Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8 ~o:8 ~h:12 ~w:12
      ~kh:3 ~kw:3 ()
  in
  let prog =
    Lower.lower ~op
      ~layouts:(fun n ->
        trivial (Opdef.input_shape op n))
      ~out_layout:(trivial [| 1; 8; 12; 12 |])
      ~schedule:(Schedule.default ~rank:4 ~nred:3)
      ()
  in
  let inputs =
    List.map (fun (n, s) -> (n, Buffer.random s)) op.Opdef.inputs
  in
  let bufs = Runtime.alloc_bufs prog ~inputs in
  let full = Profiler.run prog ~bufs in
  List.iter
    (fun budget ->
      let bufs = Runtime.alloc_bufs prog ~inputs in
      let s = Profiler.run ~max_points:budget prog ~bufs in
      Alcotest.(check bool) "sampled" true s.Profiler.sampled;
      let ratio = s.Profiler.flops /. full.Profiler.flops in
      Alcotest.(check bool)
        (Fmt.str "flops ratio %.3f within 25%% at budget %d" ratio budget)
        true
        (ratio > 0.75 && ratio < 1.25))
    [ 2_000; 10_000; 50_000 ]

let test_gpu_parallel_wins () =
  (* the GPU profile must reward parallel programs more than the ARM one *)
  let _, prog_par = gmm_prog ~vec:true ~par:2 () in
  let _, prog_ser = gmm_prog ~vec:true ~par:0 () in
  let speedup m =
    let _, rp = run_prog ~machine:m prog_par in
    let _, rs = run_prog ~machine:m prog_ser in
    rs.Profiler.latency_ms /. rp.Profiler.latency_ms
  in
  Alcotest.(check bool) "gpu speedup > arm speedup" true
    (speedup Machine.nvidia_gpu >= speedup Machine.arm_cpu)

let test_fused_logical_profile_independent () =
  (* one fused conv+relu program, executed under all three machine
     profiles: latencies differ, logical outputs must not *)
  let op =
    Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:8 ~w:8
      ~kh:3 ~kw:3 ()
  in
  let relu = Ops.relu ~name:"r" ~inp:"Y" ~out:"Z" ~shape:op.Opdef.out_shape () in
  let out_layout = trivial op.Opdef.out_shape in
  let prog =
    Lower.lower ~op
      ~layouts:(fun n -> trivial (Opdef.input_shape op n))
      ~out_layout
      ~fused:[ { Lower.fop = relu; fout_layout = out_layout } ]
      ~schedule:(Schedule.default ~rank:4 ~nred:3)
      ()
  in
  let inputs =
    List.map (fun (n, s) -> (n, Buffer.random ~seed:11 s)) op.Opdef.inputs
  in
  let runs =
    List.map
      (fun m ->
        let outs, r = Runtime.run_logical ~machine:m prog ~inputs in
        (m, List.assoc "Z" outs, r))
      Machine.all
  in
  let _, z0, _ = List.hd runs in
  Alcotest.(check bool) "relu clamped" true (Array.for_all (fun v -> v >= 0.0) z0);
  Alcotest.(check bool) "relu nontrivial" true (Array.exists (fun v -> v > 0.0) z0);
  List.iter
    (fun ((m : Machine.t), z, (r : Profiler.result)) ->
      Alcotest.(check bool)
        (m.Machine.name ^ " finite latency")
        true
        (Float.is_finite r.Profiler.latency_ms && r.Profiler.latency_ms > 0.0);
      Alcotest.(check bool)
        (m.Machine.name ^ " logical output profile-independent")
        true (z = z0))
    runs

(* ------------------------------------------------------------------ *)
(* Cache bulk interface: state-level oracle                           *)
(* ------------------------------------------------------------------ *)

module Cache = Alt_machine.Cache

(* The profiler reaches the L1 model through cursors (DESIGN.md §9): per
   stream, one [access_at] for a span's first access, then, when the line
   is still [resident] after the other streams' accesses, one [touch_at]
   for the rest, else plain accesses through the cursor.  This drives a
   cache through that exact discipline, with conflicting traffic and
   prefetches in between, while a reference cache replays the equivalent
   plain [access] sequence.  Tags, stamps and all counters must end
   identical; this is the state oracle behind the fast engine's
   counter-exactness claim. *)
let test_bulk_state_oracle () =
  let cfg = { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 } in
  let sets = cfg.Cache.size_bytes / (cfg.Cache.assoc * cfg.Cache.line_bytes) in
  let fast = Cache.create cfg and elem = Cache.create cfg in
  let cur = Cache.cursor () in
  let s_addr = ref 0 in
  let both_access addr =
    ignore (Cache.access fast addr : bool);
    ignore (Cache.access elem addr : bool)
  in
  let both_prefetch addr =
    ignore (Cache.prefetch fast addr : bool);
    ignore (Cache.prefetch elem addr : bool)
  in
  let st = Random.State.make [| 7 |] in
  (* how the rest of each span ran, by the traffic before it *)
  let quiet = ref 0 and after_installs = ref 0 and evicted = ref 0 in
  for _round = 1 to 400 do
    let n = 1 + Random.State.int st 4 in
    ignore (Cache.access_at fast cur !s_addr : int);
    ignore (Cache.access elem !s_addr : bool);
    let traffic = Random.State.int st 4 in
    let conflict k =
      for j = 1 to k do
        both_access (!s_addr + (j * sets * cfg.Cache.line_bytes))
      done
    in
    (match traffic with
    | 0 ->
        (* conflicting same-set traffic; k > assoc - 1 evicts our line *)
        conflict (1 + Random.State.int st (cfg.Cache.assoc + 1))
    | 1 ->
        (* a prefetch elsewhere installs a line without touching our set *)
        both_prefetch (!s_addr + cfg.Cache.line_bytes)
    | 2 ->
        (* our line evicted by the last conflicting line, which then
           becomes the set's LRU line; the prefetch brings ours back into
           its old way, so the next demand access is a prefetch hit *)
        conflict cfg.Cache.assoc;
        conflict (cfg.Cache.assoc - 1);
        both_prefetch !s_addr
    | _ -> ());
    if Cache.resident fast cur !s_addr then begin
      if traffic = 3 then incr quiet else incr after_installs;
      Cache.touch_at fast cur !s_addr (n - 1)
    end
    else begin
      incr evicted;
      for _ = 2 to n do
        ignore (Cache.access_at fast cur !s_addr : int)
      done
    end;
    for _ = 2 to n do
      ignore (Cache.access elem !s_addr : bool)
    done;
    (* the stream advances to the next line, as at a loop-row boundary *)
    if Random.State.int st 4 = 0 then
      s_addr := (!s_addr + cfg.Cache.line_bytes) mod (4 * sets * cfg.Cache.line_bytes)
  done;
  (* every branch of the discipline must actually fire *)
  Alcotest.(check bool)
    (Fmt.str "all paths exercised (quiet %d, after installs %d, evicted %d)"
       !quiet !after_installs !evicted)
    true
    (!quiet > 0 && !after_installs > 0 && !evicted > 0);
  let fs = Cache.stats fast and es = Cache.stats elem in
  Alcotest.(check int) "accesses" es.Cache.accesses fs.Cache.accesses;
  Alcotest.(check int) "hits" es.Cache.hits fs.Cache.hits;
  Alcotest.(check int) "misses" es.Cache.misses fs.Cache.misses;
  Alcotest.(check int) "prefetch installs" es.Cache.prefetch_installs
    fs.Cache.prefetch_installs;
  Alcotest.(check int) "prefetch hits" es.Cache.prefetch_hits
    fs.Cache.prefetch_hits;
  let ftags, fstamps, fpref = Cache.dump fast
  and etags, estamps, epref = Cache.dump elem in
  Alcotest.(check bool) "tags identical" true (ftags = etags);
  Alcotest.(check bool) "prefetched bits identical" true (fpref = epref);
  let recency tags stamps =
    List.init sets (fun s ->
        List.init cfg.Cache.assoc (fun w -> w)
        |> List.filter (fun w -> tags.((s * cfg.Cache.assoc) + w) >= 0)
        |> List.sort (fun a b ->
               compare
                 stamps.((s * cfg.Cache.assoc) + a)
                 stamps.((s * cfg.Cache.assoc) + b)))
  in
  Alcotest.(check bool) "per-set recency order identical" true
    (recency ftags fstamps = recency etags estamps)

(* A cursor answers only for the line it touched last.  One that has
   touched nothing is resident nowhere — not even in an empty cache,
   whose invalid way 0 carries the same tag (-1) as a fresh cursor's
   line — and a line evicted from the cursor's way is gone. *)
let test_cursor_residency () =
  let cfg = { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 } in
  let c = Cache.create cfg in
  let cur = Cache.cursor () in
  Alcotest.(check bool) "fresh cursor, empty cache" false
    (Cache.resident c cur 0);
  ignore (Cache.access_at c cur 128 : int);
  Alcotest.(check bool) "its line" true (Cache.resident c cur 160);
  Alcotest.(check bool) "another resident line" false
    (ignore (Cache.access c 0 : bool);
     Cache.resident c cur 0);
  (* two more lines of the same set evict the cursor's line *)
  let set_bytes = cfg.Cache.size_bytes / cfg.Cache.assoc in
  ignore (Cache.access c (128 + set_bytes) : bool);
  ignore (Cache.access c (128 + (2 * set_bytes)) : bool);
  Alcotest.(check bool) "evicted" false (Cache.resident c cur 128)

(* ------------------------------------------------------------------ *)
(* Cache reuse across simulations                                     *)
(* ------------------------------------------------------------------ *)

let random_traffic c ~seed n =
  let st = Random.State.make [| seed |] in
  for _ = 1 to n do
    let addr = Random.State.int st 8192 in
    if Random.State.int st 4 = 0 then ignore (Cache.prefetch c addr : bool)
    else ignore (Cache.access c addr : bool)
  done

let same_cache a b =
  let sa = Cache.stats a and sb = Cache.stats b in
  Cache.dump a = Cache.dump b
  && sa.Cache.accesses = sb.Cache.accesses
  && sa.Cache.hits = sb.Cache.hits
  && sa.Cache.misses = sb.Cache.misses
  && sa.Cache.prefetch_installs = sb.Cache.prefetch_installs
  && sa.Cache.prefetch_hits = sb.Cache.prefetch_hits

(* One reset cycle's traffic: a partial fill of a window of sets that
   moves by half its width per cycle, so each cycle refills ways the
   previous one filled and then reset.  Each touched set gets [assoc / 2]
   lines, alternately demanded and prefetched, and then every line is
   demanded again, which turns the prefetched ones into prefetch hits.
   The same lines recur across cycles: a line a reset left valid hits
   where a fresh cache misses. *)
let window_traffic c (cfg : Cache.cfg) ~cycle =
  let sets = cfg.Cache.size_bytes / cfg.Cache.line_bytes / cfg.Cache.assoc in
  let width = max 2 (sets / 4) in
  let addr set tag = ((tag * sets) + set) * cfg.Cache.line_bytes in
  for i = 0 to width - 1 do
    let set = ((cycle * width / 2) + i) mod sets in
    for tag = 0 to (cfg.Cache.assoc / 2) - 1 do
      if tag land 1 = 0 then ignore (Cache.access c (addr set tag) : bool)
      else ignore (Cache.prefetch c (addr set tag) : bool)
    done;
    for tag = 0 to (cfg.Cache.assoc / 2) - 1 do
      ignore (Cache.access c (addr set tag) : bool)
    done
  done

(* A reset cache is a fresh one: same tags, stamps and counters, and the
   same behaviour on any later traffic.  Reset clears only the ways a
   run filled, so several cycles of partial fills must each leave the
   state [create] gives, on a tiny geometry and on the intel L2's. *)
let test_reset_is_create () =
  let cfg = { Cache.size_bytes = 1024; assoc = 4; line_bytes = 64 } in
  let used = Cache.create cfg in
  random_traffic used ~seed:3 500;
  Cache.reset used;
  let fresh = Cache.create cfg in
  Alcotest.(check bool) "reset state = create state" true
    (same_cache used fresh);
  random_traffic used ~seed:4 500;
  random_traffic fresh ~seed:4 500;
  Alcotest.(check bool) "same behaviour afterwards" true
    (same_cache used fresh);
  List.iter
    (fun (name, cfg) ->
      let used = Cache.create cfg in
      for cycle = 0 to 5 do
        let fresh = Cache.create cfg in
        window_traffic used cfg ~cycle;
        window_traffic fresh cfg ~cycle;
        let st = Cache.stats fresh in
        if
          cycle = 0
          && (st.Cache.prefetch_installs = 0 || st.Cache.prefetch_hits = 0)
        then Alcotest.failf "%s: traffic installs no prefetched line" name;
        Alcotest.(check bool)
          (Fmt.str "%s cycle %d: same behaviour as a fresh cache" name cycle)
          true (same_cache used fresh);
        Cache.reset used;
        Alcotest.(check bool)
          (Fmt.str "%s reset %d = create" name cycle)
          true
          (same_cache used (Cache.create cfg))
      done)
    [ ("tiny", cfg); ("intel L2", Machine.intel_cpu.Machine.l2) ]

(* A prefetched line and a demand-missed one leave the same tags and
   stamps, but only the prefetched one counts a prefetch hit on its next
   access, so the dump must tell the two caches apart. *)
let test_dump_prefetch_bits () =
  let cfg = { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 } in
  let prefetched = Cache.create cfg and missed = Cache.create cfg in
  ignore (Cache.prefetch prefetched 0 : bool);
  ignore (Cache.access missed 0 : bool);
  Alcotest.(check bool) "dumps differ" false
    (Cache.dump prefetched = Cache.dump missed);
  ignore (Cache.access prefetched 0 : bool);
  ignore (Cache.access missed 0 : bool);
  Alcotest.(check (pair int int)) "prefetch hits" (1, 0)
    ( (Cache.stats prefetched).Cache.prefetch_hits,
      (Cache.stats missed).Cache.prefetch_hits );
  Alcotest.(check bool) "dumps agree once touched" true
    (Cache.dump prefetched = Cache.dump missed)

let conv_prog () =
  let op =
    Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
      ~kh:3 ~kw:3 ()
  in
  let s = Schedule.default ~rank:4 ~nred:3 in
  ( op,
    Lower.lower ~op
      ~layouts:(fun n -> trivial (List.assoc n op.Opdef.inputs))
      ~out_layout:(trivial op.Opdef.out_shape)
      ~schedule:(Schedule.vectorize s) () )

let simulate machine (op, prog) =
  let inputs =
    List.mapi
      (fun i (n, shape) -> (n, Buffer.random ~seed:(i + 1) shape))
      op.Opdef.inputs
  in
  let bufs = Runtime.alloc_bufs prog ~inputs in
  let r = Profiler.run ~machine prog ~bufs in
  (r, bufs)

(* Profiler.run reuses one cache pair per geometry per domain.  A run on
   a domain whose pairs earlier runs dirtied (another program on the same
   profile, then another profile) must equal the same run on a freshly
   spawned domain, outputs included. *)
let test_reused_caches_leak_nothing () =
  let gmm = gmm_prog ~vec:true () in
  let conv = conv_prog () in
  ignore (simulate Machine.intel_cpu gmm);
  ignore (simulate Machine.arm_cpu gmm);
  let r, bufs = simulate Machine.intel_cpu conv in
  let r', bufs' =
    Domain.join (Domain.spawn (fun () -> simulate Machine.intel_cpu conv))
  in
  Alcotest.(check bool) "result = fresh domain's" true (r = r');
  Alcotest.(check bool) "outputs = fresh domain's" true (bufs = bufs')

let () =
  Alcotest.run "alt_machine"
    [
      ( "profiler",
        [
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "exact flops" `Quick test_flops_exact;
          Alcotest.test_case "machines differ" `Quick test_machines_differ;
          Alcotest.test_case "finite latency" `Quick
            test_latency_positive_and_finite;
          Alcotest.test_case "register promotion" `Quick
            test_register_promotion;
          Alcotest.test_case "sampling extrapolation" `Quick
            test_sampling_scale_bounds;
          Alcotest.test_case "gpu parallel advantage" `Quick
            test_gpu_parallel_wins;
          Alcotest.test_case "fused conv+relu profile-independent" `Quick
            test_fused_logical_profile_independent;
        ] );
      ( "cache",
        [
          Alcotest.test_case "bulk interface state oracle" `Quick
            test_bulk_state_oracle;
          Alcotest.test_case "cursor residency" `Quick test_cursor_residency;
          Alcotest.test_case "reset = create" `Quick test_reset_is_create;
          Alcotest.test_case "dump keeps prefetch bits" `Quick
            test_dump_prefetch_bits;
          Alcotest.test_case "reused caches leak nothing" `Quick
            test_reused_caches_leak_nothing;
        ] );
    ]
