(* Cost-model unit tests: the exact-greedy GBDT fitter against the seed
   (per-node re-sorting) fitter, batched prediction, warm-start boosting,
   and the tuner-side lowering/feature memo cache. *)

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
   DESIGN.md §10 for the tied-column caveat). *)
let continuous_data ~seed ~n ~d =
  let rng = Random.State.make [| seed |] in
  let xs = Array.init n (fun _ -> Array.init d (fun _ -> Random.State.float rng 1.0)) in
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
  let xs, ys = continuous_data ~seed:11 ~n:120 ~d:6 in
  Alcotest.(check bool) "identical refits" true
    (Gbdt.equal (Gbdt.fit xs ys) (Gbdt.fit xs ys))

(* The exact-greedy fitter reproduces the seed fitter bit-identically on
   continuous (tie-free) data. *)
let prop_old_new_equivalent =
  QCheck2.Test.make ~count:30 ~name:"exact-greedy == reference fitter"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 20 150))
    (fun (seed, n) ->
      let xs, ys = continuous_data ~seed ~n ~d:5 in
      Gbdt.equal (Gbdt.fit xs ys) (Gbdt.fit_reference xs ys))

(* ------------------------------------------------------------------ *)
(* Prediction                                                         *)
(* ------------------------------------------------------------------ *)

(* Batched prediction over the flattened trees is bitwise the per-sample
   recursive fold. *)
let prop_predict_batch_bitwise =
  QCheck2.Test.make ~count:30 ~name:"predict_batch == predict, bitwise"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let xs, ys = continuous_data ~seed ~n:80 ~d:5 in
      let m = Gbdt.fit xs ys in
      let cands, _ = continuous_data ~seed:(seed + 1) ~n:33 ~d:5 in
      let batched = Gbdt.predict_batch m cands in
      Array.for_all2 Float.equal batched (Array.map (Gbdt.predict m) cands))

let test_predict_batch_empty () =
  let xs, ys = continuous_data ~seed:3 ~n:50 ~d:4 in
  let m = Gbdt.fit xs ys in
  Alcotest.(check int) "empty batch" 0 (Array.length (Gbdt.predict_batch m [||]));
  let e = Gbdt.fit [||] [||] in
  Alcotest.(check (float 0.0)) "empty model" 0.0 (Gbdt.predict_batch e [| [| 1.0 |] |]).(0)

(* ------------------------------------------------------------------ *)
(* Warm start                                                         *)
(* ------------------------------------------------------------------ *)

let test_refit_grows () =
  let xs, ys = continuous_data ~seed:7 ~n:100 ~d:5 in
  let m = Gbdt.fit xs ys in
  let n0 = Gbdt.n_trees m in
  let xs2, ys2 = continuous_data ~seed:8 ~n:140 ~d:5 in
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
      ( "predict",
        [ Alcotest.test_case "empty batches" `Quick test_predict_batch_empty ]
      );
      qsuite "predict-props" [ prop_predict_batch_bitwise ];
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
