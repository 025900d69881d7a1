(* Cost-model unit tests: the exact-greedy GBDT fitter against the seed
   (per-node re-sorting) fitter and against pinned predictions on real
   schedule features, warm-start boosting, and the tuner-side
   lowering/feature memo cache. *)

module Ops = Alt_graph.Ops
module Propagate = Alt_graph.Propagate
module Machine = Alt_machine.Machine
module Measure = Alt_tuner.Measure
module Templates = Alt_tuner.Templates
module Loopspace = Alt_tuner.Loopspace
module Tuner = Alt_tuner.Tuner
module Features = Alt_costmodel.Features
module Gbdt = Alt_costmodel.Gbdt

(* Deterministic continuous data: sampled from (0,1) so feature columns
   are tie-free, where the two fitters are guaranteed bit-identical (see
   DESIGN.md §10 for the tied-column caveat).  The columns named in
   [const] (column, value) hold that value for every sample instead:
   tied, but without a split candidate, so the oracle still applies. *)
let continuous_data ?(const = []) ~seed ~n ~d () =
  let rng = Random.State.make [| seed |] in
  let xs =
    Array.init n (fun _ ->
        Array.init d (fun f ->
            match List.assoc_opt f const with
            | Some c -> c
            | None -> Random.State.float rng 1.0))
  in
  let ys =
    Array.map
      (fun x ->
        Array.fold_left ( +. ) 0.0 x +. (Random.State.float rng 0.1))
      xs
  in
  (xs, ys)

(* ------------------------------------------------------------------ *)
(* Fitting                                                            *)
(* ------------------------------------------------------------------ *)

(* A monotone 1-d relation must be learned monotonically (up to leaf
   granularity): predictions at well-separated inputs must increase. *)
let test_monotone () =
  let xs = Array.init 200 (fun i -> [| float_of_int i /. 200.0 |]) in
  let ys = Array.map (fun x -> (3.0 *. x.(0)) +. 1.0) xs in
  let m = Gbdt.fit xs ys in
  let r2 = Gbdt.r2 m xs ys in
  Alcotest.(check bool) (Fmt.str "r2 %.3f > 0.9" r2) true (r2 > 0.9);
  let p_lo = Gbdt.predict m [| 0.1 |]
  and p_mid = Gbdt.predict m [| 0.5 |]
  and p_hi = Gbdt.predict m [| 0.9 |] in
  Alcotest.(check bool) "monotone" true (p_lo < p_mid && p_mid < p_hi)

(* Fitting is deterministic: same data, same trees, bit for bit. *)
let test_split_determinism () =
  let xs, ys = continuous_data ~seed:11 ~n:120 ~d:6 () in
  Alcotest.(check bool) "identical refits" true
    (Gbdt.equal (Gbdt.fit xs ys) (Gbdt.fit xs ys))

(* The exact-greedy fitter reproduces the seed fitter bit-identically on
   continuous (tie-free) data, with up to three of its seven feature
   columns constant over all samples (the columns the fitter skips). *)
let prop_old_new_equivalent =
  QCheck2.Test.make ~count:30 ~name:"exact-greedy == reference fitter"
    QCheck2.Gen.(
      triple (int_range 0 10_000) (int_range 20 150)
        (list_size (int_range 0 3)
           (pair (int_range 0 6) (float_bound_inclusive 1.0))))
    (fun (seed, n, const) ->
      let xs, ys = continuous_data ~const ~seed ~n ~d:7 () in
      Gbdt.equal (Gbdt.fit xs ys) (Gbdt.fit_reference xs ys))

(* ------------------------------------------------------------------ *)
(* Bit-identity on real, tied schedule features                       *)
(* ------------------------------------------------------------------ *)

(* Feature vectors of seeded conv2d loop-space candidates at the
   channels-last layout, drawn as bench_tuner's [feature_matrix] draws
   them: discrete knobs, so the columns are full of ties, and columns
   constant inside a node are common. *)
let schedule_features ~n =
  let op =
    Ops.c2d ~name:"conv" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16 ~o:32 ~h:14
      ~w:14 ~kh:3 ~kw:3 ()
  in
  let task = Measure.make_task ~machine:Machine.intel_cpu op in
  let choice = Templates.channels_last_choice op in
  let space = Loopspace.of_layout op choice.Propagate.out_layout in
  let rng = Random.State.make [| 0xA17 |] in
  Array.init n (fun _ ->
      let rec draw () =
        let sched =
          Loopspace.decode space (Loopspace.random_point ~rng space)
        in
        match Measure.features_of task choice sched with
        | Some f -> f
        | None -> draw ()
      in
      draw ())

let predictions_digest m rows =
  let b = Buffer.create 4096 in
  Array.iter
    (fun x ->
      Buffer.add_string b
        (Printf.sprintf "%Lx;" (Int64.bits_of_float (Gbdt.predict m x))))
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Trees fitted on tied features must not drift: the digests of [fit]'s
   and [refit]'s predictions over the 256 training rows and 64 held-out
   rows are pinned to the values the per-node-allocating fitter produced
   before the workspace rewrite.  The refit boosts onto the fit with 64
   more rows, as the tuner's warm path does after a batch. *)
let test_tied_features_pinned () =
  let rows = schedule_features ~n:(256 + 64 + 64) in
  let rng = Random.State.make [| 0xBEEF |] in
  let w =
    Array.init (Array.length rows.(0)) (fun _ ->
        Random.State.float rng 1.0 -. 0.5)
  in
  let ys =
    Array.map
      (fun x ->
        let s = ref 0.0 in
        Array.iteri (fun i v -> s := !s +. (w.(i) *. v)) x;
        Float.log (1.0 +. Float.abs !s) +. Random.State.float rng 0.1)
      rows
  in
  let train = Array.sub rows 0 256 and held = Array.sub rows 256 64 in
  let probe = Array.append train held in
  let m = Gbdt.fit train (Array.sub ys 0 256) in
  let grown = Array.append train (Array.sub rows 320 64) in
  let grown_ys = Array.append (Array.sub ys 0 256) (Array.sub ys 320 64) in
  let m' = Gbdt.refit m grown grown_ys in
  Alcotest.(check string)
    "fit" "565eb2bcdd912a8a696e515214c3e1e0" (predictions_digest m probe);
  Alcotest.(check string)
    "refit" "34225520096f22dbf95f5796215334fa" (predictions_digest m' probe)

(* A training set recorded from a serve-burst ledger run (seed 7), cut
   down to the 23 rows (runs of repeated candidates, in order) and 6
   feature columns on which squaring the residuals as [r *. r] instead of
   [r ** 2.0] changes the fitted trees: libm's [pow (r, 2.)] is not
   always the correctly rounded product, and tuning trajectories follow
   the exact trees.  The two trees split the training rows alike, so the
   probe adds rows off the training set: each row with one feature taken
   from the next row. *)
let test_squares_pinned () =
  let runs =
    [
      (1, [| 0x1.6p+3; 0x1p-1; 0x1.62e42fefa39efp-1; 0x1p-5; 0.; 0x1.638p-4 |],
       -0x1.efb66d67ebb8p+0);
      (1, [| 0x1.cp+3; 0x1p+4; 0x1.0a2b23f3bab73p+1; 0x1.cp-3; 1.; 0x1.5fp-4 |],
       -0x1.c85d25019bdf1p+1);
      (5, [| 0x1.6p+3; 0x1p+6; 0x1.5aa16394d481fp+1; 0x1.cp-2; 1.; 0x1.5b8p-3 |],
       -0x1.221defc38f016p+2);
      (1, [| 0x1p+3; 0x1p-4; 0x1.193ea7aad030bp+0; 0x1p-4; 0.; 0x1.2a1p+0 |],
       -0x1.24697dcd2f57p+0);
      (7, [| 0x1.4p+3; 0x1p+6; 0x1.2616719161d2bp+2; 1.; 1.; 0x1.5b8p-3 |],
       -0x1.57063d0297678p+2);
      (1, [| 0x1.cp+3; 0x1.88p+1; 0x1.9c041f7ed8d33p+0; 0x1p-3; 0.; 0x1.2e2p-2 |],
       -0x1.aec846b5ab3c7p+1);
      (1, [| 0x1.2p+3; 0x1p-4; 0x1.9c041f7ed8d33p+0; 0x1p-3; 0.; 0x1.2d2p-1 |],
       -0x1.d652f87d18cf7p+0);
      (2, [| 0x1.4p+3; 0x1.88p+3; 0x1.5aa16394d481fp+2; 1.; 1.; 0x1.888p-4 |],
       -0x1.44c1a2081301dp+2);
      (1, [| 0x1.8p+3; 0x1.88p+3; 0x1.2e8d85a33835cp+2; 1.; 1.; 0x1.8cp-6 |],
       -0x1.618062e558791p+2);
      (3, [| 0x1.4p+3; 0x1.88p+3; 0x1.5aa16394d481fp+2; 1.; 1.; 0x1.888p-4 |],
       -0x1.44c1a2081301dp+2);
    ]
  in
  let rows =
    List.concat_map (fun (k, x, y) -> List.init k (fun _ -> (x, y))) runs
  in
  let xs = Array.of_list (List.map fst rows) in
  let ys = Array.of_list (List.map snd rows) in
  let n = Array.length xs in
  let crossed f =
    Array.mapi
      (fun i x ->
        let x = Array.copy x in
        x.(f) <- xs.((i + 1) mod n).(f);
        x)
      xs
  in
  let probe = Array.concat (xs :: List.init 6 crossed) in
  Alcotest.(check string)
    "fit" "92bb908c459f705b93926a6503437f18"
    (predictions_digest (Gbdt.fit xs ys) probe)

(* ------------------------------------------------------------------ *)
(* Warm start                                                         *)
(* ------------------------------------------------------------------ *)

let test_refit_grows () =
  let xs, ys = continuous_data ~seed:7 ~n:100 ~d:5 () in
  let m = Gbdt.fit xs ys in
  let n0 = Gbdt.n_trees m in
  let xs2, ys2 = continuous_data ~seed:8 ~n:140 ~d:5 () in
  let m' = Gbdt.refit m xs2 ys2 in
  Alcotest.(check bool) "trees grew" true (Gbdt.n_trees m' > n0);
  (* the boosted model must still fit the grown data it was refit on *)
  let r2 = Gbdt.r2 m' xs2 ys2 in
  Alcotest.(check bool) (Fmt.str "refit r2 %.3f > 0.5" r2) true (r2 > 0.5);
  (* explicit extra budget is honored; zero/empty are no-ops *)
  Alcotest.(check int) "extra_trees" (n0 + 3)
    (Gbdt.n_trees (Gbdt.refit ~extra_trees:3 m xs2 ys2));
  Alcotest.(check bool) "zero extra is a no-op" true
    (Gbdt.equal m (Gbdt.refit ~extra_trees:0 m xs2 ys2));
  Alcotest.(check bool) "empty data is a no-op" true
    (Gbdt.equal m (Gbdt.refit m [||] [||]));
  Alcotest.check_raises "negative extra"
    (Invalid_argument "Gbdt.refit: extra_trees must be >= 0") (fun () ->
      ignore (Gbdt.refit ~extra_trees:(-1) m xs2 ys2 : Gbdt.t))

(* ------------------------------------------------------------------ *)
(* Lowering/feature memo cache                                        *)
(* ------------------------------------------------------------------ *)

let small_c2d () =
  Ops.c2d ~name:"c2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let tune ?(warm_start = false) () =
  let task = Measure.make_task ~machine:Machine.intel_cpu (small_c2d ()) in
  let r =
    Tuner.tune_alt ~seed:3 ~warm_start ~joint_budget:8 ~loop_budget:16 task
  in
  (task, r)

(* Features.extract runs at most once per distinct (choice, schedule):
   the miss counter equals the number of cached feature vectors, and the
   ranking passes actually hit. *)
let test_feature_cache_single_extract () =
  let task, _ = tune () in
  let ls = Measure.lower_stats task in
  let _, feat_cached = Measure.lower_cache_sizes task in
  Alcotest.(check int) "one extract per distinct candidate" feat_cached
    ls.Measure.feat_misses;
  Alcotest.(check bool) "ranking hits the cache" true (ls.Measure.feat_hits > 0);
  Alcotest.(check bool) "lowering hits too" true (ls.Measure.prog_hits > 0)

(* The memo cache must not change the trajectory.  A hit serves the
   program lowered for the candidate's first occurrence, whose loop
   variables carry older ids; it must be indistinguishable from lowering
   the candidate afresh on a new task — the same canonical
   [Measure.program_key] (the measurement cache key and everything the
   simulator reads) and the same cost-model features.  Candidates are
   drawn the way the tuner draws them (template knobs and loop-space
   points) and re-decoded into new values on every pass, so the second
   and third passes are all hits. *)
let test_memo_trajectory_neutral () =
  let op = small_c2d () and machine = Machine.intel_cpu in
  let tpl = Option.get (Templates.for_op op) in
  let rng = Random.State.make [| 17 |] in
  let draws =
    List.concat_map
      (fun _ ->
        let knobs =
          Array.map (fun _ -> Random.State.float rng 1.0) tpl.Templates.knobs
        in
        let layout = (tpl.Templates.decode knobs).Propagate.out_layout in
        let space = Loopspace.of_layout op layout in
        Loopspace.heuristic_point space
        :: List.init 3 (fun _ -> Loopspace.random_point ~rng space)
        |> List.map (fun pt -> (knobs, pt)))
      (List.init 6 Fun.id)
  in
  let decode (knobs, pt) =
    let choice = tpl.Templates.decode knobs in
    let space = Loopspace.of_layout op choice.Propagate.out_layout in
    (choice, Loopspace.decode space pt)
  in
  let task = Measure.make_task ~machine op in
  let prog_hits () = (Measure.lower_stats task).Measure.prog_hits in
  let hits = ref 0 and lowered = ref 0 in
  let pass () =
    List.iter
      (fun d ->
        let choice, sched = decode d in
        let before = prog_hits () in
        let memo = Measure.program_of task choice sched in
        if prog_hits () > before then begin
          incr hits;
          let fresh =
            Measure.program_of (Measure.make_task ~machine op) choice sched
          in
          match (memo, fresh) with
          | Some p, Some q ->
              incr lowered;
              Alcotest.(check string)
                "program key" (Measure.program_key q) (Measure.program_key p);
              Alcotest.(check (array (float 0.0)))
                "features" (Features.extract machine q)
                (Option.get (Measure.features_of task choice sched))
          | None, None -> ()
          | _ -> Alcotest.fail "a memo hit disagrees on legality"
        end)
      draws
  in
  pass ();
  Alcotest.(check int) "first pass misses" 0 !hits;
  pass ();
  pass ();
  Alcotest.(check int) "later passes hit" (2 * List.length draws) !hits;
  Alcotest.(check bool) "hits cover lowered programs" true (!lowered > 0)

(* Warm start completes and yields a finite result (its trajectory is
   allowed to differ — that is why it is off by default). *)
let test_warm_start_runs () =
  let _, r = tune ~warm_start:true () in
  Alcotest.(check bool) "finite best" true
    (Float.is_finite r.Tuner.best_latency)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "alt_costmodel"
    [
      ( "fit",
        [
          Alcotest.test_case "monotone synthetic" `Quick test_monotone;
          Alcotest.test_case "split determinism" `Quick test_split_determinism;
        ] );
      qsuite "fit-props" [ prop_old_new_equivalent ];
      ( "fit-tied",
        [
          Alcotest.test_case "schedule features pinned" `Quick
            test_tied_features_pinned;
          Alcotest.test_case "recorded squares pinned" `Quick
            test_squares_pinned;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "refit grows the ensemble" `Quick test_refit_grows;
          Alcotest.test_case "tuner runs warm" `Quick test_warm_start_runs;
        ] );
      ( "memo-cache",
        [
          Alcotest.test_case "single extract per candidate" `Quick
            test_feature_cache_single_extract;
          Alcotest.test_case "trajectory neutral" `Quick
            test_memo_trajectory_neutral;
        ] );
    ]
