(* Search-side micro-benchmark: GBDT fit throughput of the exact-greedy
   fitter [Gbdt.fit] (one workspace per fit: presort once, partition
   node ranges in place) against the seed fitter [Gbdt.fit_reference]
   (a fresh sort per node per feature), on feature vectors extracted from
   real lowered candidates of a conv2d tuning space, at two training-set
   sizes.

   Correctness oracle: the two fitters must produce bit-identical trees
   on tie-free continuous data (any mismatch aborts).  Whether they also
   agree on the real (tie-containing) schedule features is reported as a
   diagnostic field, not asserted — split sets are tie-order-invariant
   but prefix-sum rounding within tied runs may differ, because real
   knob features are discrete and full of ties (see the tie caveat in
   gbdt.mli and DESIGN.md §10).

   Results go to BENCH_tuner.json so the perf trajectory is tracked
   across PRs.  ALT_BENCH_SCALE=smoke|quick|full controls sizes. *)

open Alt

let scale_name = Bench_util.scale_name
let pick = Bench_util.pick

(* Training-set sizes.  The tuner refits after every measured batch on
   everything the task has measured so far.  In the performance ledger
   at seed 7 that is 8-56 samples per fit on serve-burst (mean 32), a
   mean of 20 on zoo-schedule and of 10 on model-tune-run, and every
   round ranks 24 candidates.  [n_traffic] is that traffic's size;
   [n_train] is the larger set earlier runs of this bench were recorded
   at. *)
let n_traffic = 32
let n_train = pick ~smoke:64 ~quick:256 ~full:1024
let min_time = pick ~smoke:0.02 ~quick:0.3 ~full:1.0
let cores = Bench_util.cores

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

(* Feature vectors from real lowered candidates: random points of a
   conv2d loop space at the channels-last layout, exactly what the tuner
   feeds the model. *)
let feature_matrix machine ~n =
  let op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16 ~o:32 ~h:14
      ~w:14 ~kh:3 ~kw:3 ()
  in
  let task = Measure.make_task ~machine op in
  let choice = Templates.channels_last_choice op in
  let space = Loopspace.of_layout op choice.Propagate.out_layout in
  let rng = Random.State.make [| 0xA17 |] in
  Array.init n (fun _ ->
      let rec draw () =
        let sched = Loopspace.decode space (Loopspace.random_point ~rng space) in
        match Measure.features_of task choice sched with
        | Some f -> f
        | None -> draw ()
      in
      draw ())

(* Deterministic pseudo-latencies with the right shape (log-scale targets,
   correlated with the features): enough for timing and for the fit
   oracle. *)
let targets xs =
  let d = Array.length xs.(0) in
  let rng = Random.State.make [| 0xBEEF |] in
  let w = Array.init d (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  Array.map
    (fun x ->
      let s = ref 0.0 in
      Array.iteri (fun i v -> s := !s +. (w.(i) *. v)) x;
      Float.log (1.0 +. Float.abs !s))
    xs

type fit_rate = {
  n : int; (* training samples *)
  fit_ref_per_s : float;
  fit_new_per_s : float;
  fitters_identical : bool; (* on real tied features: diagnostic only *)
}

(* Tie-free oracle: continuous random data has no tied feature values
   (probability 0), so here the two fitters are documented bit-identical
   — assert it, don't just report it. *)
let check_fitters_tiefree () =
  let rng = Random.State.make [| 0x71E; 0xF4EE |] in
  let n = n_train and d = 24 in
  let xs =
    Array.init n (fun _ -> Array.init d (fun _ -> Random.State.float rng 1.0))
  in
  let w = Array.init d (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  let ys =
    Array.map
      (fun x ->
        let s = ref 0.0 in
        Array.iteri (fun i v -> s := !s +. (w.(i) *. v)) x;
        !s)
      xs
  in
  if not (Gbdt.equal (Gbdt.fit_reference xs ys) (Gbdt.fit xs ys)) then
    Fmt.failwith
      "exact-greedy fitter diverges from the reference on tie-free data"

let time_fits xs =
  let ys = targets xs in
  let m_ref = Gbdt.fit_reference xs ys in
  let m_new = Gbdt.fit xs ys in
  (* sanity: both fitters learn the synthetic relation *)
  let r2_ref = Gbdt.r2 m_ref xs ys and r2_new = Gbdt.r2 m_new xs ys in
  if r2_ref < 0.5 || r2_new < 0.5 then
    Fmt.failwith "fitters underfit the synthetic data: r2 %f / %f" r2_ref
      r2_new;
  {
    n = Array.length xs;
    fit_ref_per_s =
      throughput (fun () -> ignore (Gbdt.fit_reference xs ys : Gbdt.t));
    fit_new_per_s = throughput (fun () -> ignore (Gbdt.fit xs ys : Gbdt.t));
    fitters_identical = Gbdt.equal m_ref m_new;
  }

let json_of machine ~feature_dim rates =
  let b = Stdlib.Buffer.create 1024 in
  let add = Stdlib.Buffer.add_string b in
  add "{\n";
  add (Fmt.str "  \"scale\": %S,\n" scale_name);
  add (Fmt.str "  \"machine\": %S,\n" machine.Machine.name);
  add (Fmt.str "  %s,\n" (Bench_util.provenance_json ()));
  add "  \"microbench\": {\n";
  add (Fmt.str "    \"feature_dim\": %d,\n" feature_dim);
  add "    \"fitters_identical_tiefree\": true,\n";
  add "    \"fits\": [\n";
  List.iteri
    (fun i r ->
      add
        (Fmt.str
           "      {\"n_train\": %d, \"fit_reference_per_s\": %.3f, \
            \"fit_per_s\": %.3f, \"fit_speedup\": %.3f, \
            \"fitters_identical_tied_features\": %b}%s\n"
           r.n r.fit_ref_per_s r.fit_new_per_s
           (r.fit_new_per_s /. r.fit_ref_per_s)
           r.fitters_identical
           (if i = List.length rates - 1 then "" else ",")))
    rates;
  add "    ]\n";
  add "  }\n";
  add "}\n";
  Stdlib.Buffer.contents b

let () =
  let machine = Machine.intel_cpu in
  Fmt.pr "tuner micro-benchmark (scale=%s, machine=%s, cores=%d)@." scale_name
    machine.Machine.name cores;
  check_fitters_tiefree ();
  let all = feature_matrix machine ~n:n_train in
  let feature_dim = Array.length all.(0) in
  let rates =
    List.map (fun n -> time_fits (Array.sub all 0 n)) [ n_traffic; n_train ]
  in
  List.iter
    (fun r ->
      Fmt.pr
        "fit (%4d samples x %d feats): ref %9.1f fits/s   new %9.1f fits/s  \
         %6.2fx (fitters identical on this data: %b)@."
        r.n feature_dim r.fit_ref_per_s r.fit_new_per_s
        (r.fit_new_per_s /. r.fit_ref_per_s)
        r.fitters_identical)
    rates;
  Bench_util.write_bench "BENCH_tuner.json" (json_of machine ~feature_dim rates)
