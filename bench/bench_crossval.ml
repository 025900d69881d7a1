(* Cross-validation benchmark: does the cache-model simulator rank
   candidate (layout, schedule) pairs the same way the compiled exec
   backend's wall clock does?

   For each workload a fixed seeded candidate set is lowered once,
   normalized to the exec device's feature set (serial, scalar — the
   sim's parallel speedup and vector-lane scaling have no wall-clock
   counterpart), then measured by both devices.  Spearman rho and
   Kendall tau between the two latency vectors go to BENCH_crossval.json
   so rank agreement is tracked across PRs.

   ALT_BENCH_SCALE=smoke|quick|full controls the problem size, the
   candidate count and the repeat discipline. *)

open Alt

let scale_name = Bench_util.scale_name
let pick = Bench_util.pick

(* Candidate generation: the deterministic layout zoo under one fixed
   scalar serial schedule.  Holding the loop structure constant is what
   makes the comparison meaningful: the exec device's wall clock also
   pays per-iteration interpretation overhead the simulator never
   models, so candidates may differ only in what both devices price —
   memory access order (DESIGN.md §12). *)
let candidates op ~nred =
  let rank = Shape.rank op.Opdef.out_shape in
  let sched =
    Schedule.no_vectorize
      (Schedule.parallel (Schedule.default ~rank ~nred) 0)
  in
  List.map (fun choice -> (choice, sched)) (Templates.layout_zoo op)

let dedup_programs task cands =
  cands
  |> List.filter_map (fun (c, s) -> Measure.program_of task c s)
  |> List.fold_left
       (fun (seen, acc) p ->
         let key = Measure.program_key p in
         if List.mem key seen then (seen, acc) else (key :: seen, p :: acc))
       ([], [])
  |> snd |> List.rev

type row = {
  rname : string;
  n : int;
  rho : float;
  tau : float;
  noise : float;
  sim_ms : float array;
  wall_ms : float array;
}

let crossval ~name ~op ~max_points ~nred ~cfg =
  let machine = Machine.intel_cpu in
  let task = Measure.make_task ~max_points ~machine op in
  let progs = dedup_programs task (candidates op ~nred) in
  let wall p =
    let bufs = Runtime.alloc_bufs p ~inputs:task.Measure.feeds in
    (Exec.measure ~cfg p ~bufs).Exec.median_ms
  in
  let sim p =
    let bufs = Runtime.alloc_bufs p ~inputs:task.Measure.feeds in
    let r = Profiler.run ~machine ~max_points ~fast:true p ~bufs in
    if r.Profiler.sampled then
      Fmt.epr "  WARNING %s: sim sampled (scale %.1f) — raise max_points@."
        name r.Profiler.scale;
    r.Profiler.latency_ms
  in
  (* wall-clock noise estimate: re-measure the first candidate *)
  let p0 = List.hd progs in
  let a = wall p0 and b = wall p0 in
  let noise = Float.abs (a -. b) /. Float.max 1e-9 (Float.min a b) in
  let sims = Array.of_list (List.map sim progs) in
  let walls = Array.of_list (List.map wall progs) in
  Array.iteri
    (fun i s ->
      Fmt.epr "  %s[%02d] sim %8.4f ms  wall %8.4f ms@." name i s walls.(i))
    sims;
  let rho = Rankcorr.spearman sims walls in
  let tau = Rankcorr.kendall sims walls in
  Fmt.epr "%s: n=%d rho=%.3f tau=%.3f noise=%.3f@." name (Array.length sims)
    rho tau noise;
  { rname = name; n = Array.length sims; rho; tau; noise;
    sim_ms = sims; wall_ms = walls }

let json_of_rows rows =
  let b = Stdlib.Buffer.create 4096 in
  let add fmt = Fmt.kstr (Stdlib.Buffer.add_string b) fmt in
  let farr a =
    String.concat ", "
      (Array.to_list (Array.map (fun x -> Fmt.str "%.6f" x) a))
  in
  add "{\n  \"bench\": \"crossval\",\n  \"scale\": %S,\n  %s,\n" scale_name
    (Bench_util.provenance_json ());
  add "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      add
        "    {\"name\": %S, \"n\": %d, \"spearman\": %.4f, \"kendall\": \
         %.4f, \"noise\": %.4f,\n\
        \     \"sim_ms\": [%s],\n\
        \     \"wall_ms\": [%s]}%s\n"
        r.rname r.n r.rho r.tau r.noise (farr r.sim_ms) (farr r.wall_ms)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  add "  ]\n}\n";
  Stdlib.Buffer.contents b

let () =
  let repeats = pick ~smoke:3 ~quick:5 ~full:9 in
  let cfg = { Exec.warmup = 1; repeats; clock = Exec.Wall } in
  (* streaming workload: miss-dominated on both devices, so layout is
     the first-order cost and rank agreement should be strongest *)
  let side = pick ~smoke:512 ~quick:768 ~full:1536 in
  let stream =
    crossval ~name:(Fmt.str "relu_%dx%d" side side)
      ~op:(Ops.relu ~name:"r" ~inp:"X" ~out:"Y" ~shape:[| side; side |] ())
      ~max_points:(8 * side * side) ~nred:0 ~cfg
  in
  let dim = pick ~smoke:64 ~quick:96 ~full:160 in
  let max_points = 8 * dim * dim * dim in
  let gmm =
    crossval ~name:(Fmt.str "gmm_%d" dim)
      ~op:(Ops.gmm ~name:"g" ~a:"A" ~b:"B" ~out:"Y" ~m:dim ~k:dim ~n:dim ())
      ~max_points ~nred:1 ~cfg
  in
  let hw = pick ~smoke:12 ~quick:16 ~full:24 in
  let ch = pick ~smoke:16 ~quick:32 ~full:48 in
  let conv_op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:ch ~o:ch ~h:hw
      ~w:hw ~kh:3 ~kw:3 ()
  in
  let conv =
    crossval ~name:(Fmt.str "conv_%dx%d" ch hw)
      ~op:conv_op
      ~max_points:(16 * ch * ch * hw * hw * 9)
      ~nred:3 ~cfg
  in
  let rows = [ stream; gmm; conv ] in
  let json = json_of_rows rows in
  Bench_util.write_bench "BENCH_crossval.json" json;
  Fmt.pr "%s" json;
  (* The bench is also a gate, but only where the two devices share the
     dominant cost: the streaming workload is miss-bound on both sides,
     so layout is the first-order cost for each and rank agreement is
     pinned high.  On gmm/conv at these sizes the simulator's candidate
     spread is under 1% (modeled caches absorb the strides) while the
     exec wall is dominated by per-operation interpreter overhead the
     cache model deliberately omits — their rows are tracked in the
     JSON as diagnostics, not gated. *)
  (* wall-side non-vacuity guard (mirrors test_exec.ml): if a
     cache-thrashing neighbor on a shared host flattens the zoo's wall
     spread, every layout is equally miss-bound and rank agreement is
     noise by construction — skip the floor loudly rather than judge *)
  let wspread =
    let wmin = Array.fold_left Float.min stream.wall_ms.(0) stream.wall_ms in
    let wmax = Array.fold_left Float.max stream.wall_ms.(0) stream.wall_ms in
    wmax /. Float.max 1e-9 wmin
  in
  if stream.noise <= 0.3 && wspread < 1.5 then
    Fmt.epr
      "crossval %s: wall spread %.2fx cannot separate the zoo (contended \
       box) — floor skipped@."
      stream.rname wspread
  else if stream.noise <= 0.3 && not (stream.rho > 0.5) then
    Fmt.failwith "crossval %s: spearman %.3f below pinned floor 0.5"
      stream.rname stream.rho
