(* Figure 1: C2D and GMM latency under different fixed data layouts
   (NOHW / NHWO / HWON and KN / NK / NKn), with loops tuned per layout.

   Demonstrates the paper's Observation 1: the best layout depends on the
   operator configuration and the platform, and the gap is large. *)

open Alt
open Bench_util

(* (n, i, o, h=w, k, stride) sampled from widely used settings; scaled. *)
let c2d_configs =
  let base =
    [
      (1, 3, 16, 32, 3, 1);
      (1, 16, 32, 28, 3, 1);
      (1, 32, 32, 14, 3, 1);
      (1, 32, 64, 14, 1, 1);
      (1, 64, 64, 7, 3, 1);
      (1, 16, 16, 28, 3, 2);
      (4, 16, 32, 14, 3, 1);
      (1, 8, 96, 14, 1, 1);
      (1, 48, 16, 28, 1, 1);
      (2, 24, 24, 14, 5, 1);
      (1, 64, 32, 14, 3, 2);
      (1, 12, 12, 56, 3, 1);
    ]
  in
  pick ~smoke:(List.filteri (fun i _ -> i < 2) base)
    ~quick:(List.filteri (fun i _ -> i < 8) base)
    ~full:base

let gmm_configs =
  let base =
    [
      (32, 32, 32); (64, 64, 64); (32, 256, 32); (256, 32, 256);
      (128, 128, 128); (64, 512, 64); (48, 48, 192); (16, 1024, 16);
    ]
  in
  pick ~smoke:(List.filteri (fun i _ -> i < 2) base)
    ~quick:(List.filteri (fun i _ -> i < 6) base)
    ~full:base

let loop_budget = pick ~smoke:8 ~quick:24 ~full:64
let max_points = pick ~smoke:5_000 ~quick:20_000 ~full:60_000

let tune_fixed machine op choice =
  let task = Measure.make_task ~machine ~max_points op in
  let r =
    Tuner.tune_loop_only ~explorer:Tuner.Guided ~budget:loop_budget
      ~layouts:[ choice ] task
  in
  r.Tuner.best_latency

let run_c2d machine =
  Fmt.pr "@.C2D on %a (latency ms; loops tuned per layout, budget %d):@."
    Machine.pp machine loop_budget;
  Fmt.pr "%-4s %-26s %10s %10s %10s   best@." "cfg" "(n,i,o,hw,k,s)" "NOHW"
    "NHWO" "HWON";
  let wins = ref [] in
  List.iteri
    (fun ci (n, i, o, hw, k, s) ->
      let op =
        Ops.c2d
          ~name:(Fmt.str "c2d%d" ci)
          ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~h:hw ~w:hw ~kh:k ~kw:k
          ~stride:s ()
      in
      let l_nohw = tune_fixed machine op (Templates.trivial_choice op) in
      let l_nhwo = tune_fixed machine op (Templates.channels_last_choice op) in
      let l_hwon = tune_fixed machine op (Templates.hwon_choice op) in
      let best, bname =
        List.fold_left
          (fun (b, bn) (l, n) -> if l < b then (l, n) else (b, bn))
          (Float.infinity, "?")
          [ (l_nohw, "NOHW"); (l_nhwo, "NHWO"); (l_hwon, "HWON") ]
      in
      let worst = Float.max l_nohw (Float.max l_nhwo l_hwon) in
      wins := (worst /. best) :: !wins;
      Fmt.pr "%-4d (%d,%d,%d,%d,%d,%d)%14s %10.4f %10.4f %10.4f   %s@." ci n
        i o hw k s "" l_nohw l_nhwo l_hwon bname)
    c2d_configs;
  Fmt.pr "geo-mean best/worst layout gap: %.2fx@." (geomean !wins)

let run_gmm machine =
  Fmt.pr "@.GMM on %a (latency ms; loops tuned per layout):@." Machine.pp
    machine;
  Fmt.pr "%-4s %-16s %10s %10s %10s   best@." "cfg" "(m,k,n)" "KN" "NK" "NKn";
  let wins = ref [] in
  List.iteri
    (fun ci (m, k, n) ->
      let op =
        Ops.gmm ~name:(Fmt.str "gmm%d" ci) ~a:"A" ~b:"B" ~out:"C" ~m ~k ~n ()
      in
      let l_kn = tune_fixed machine op (Templates.gmm_kn op) in
      let l_nk = tune_fixed machine op (Templates.gmm_nk op) in
      let l_nkn = tune_fixed machine op (Templates.gmm_nkn op) in
      let best, bname =
        List.fold_left
          (fun (b, bn) (l, nm) -> if l < b then (l, nm) else (b, bn))
          (Float.infinity, "?")
          [ (l_kn, "KN"); (l_nk, "NK"); (l_nkn, "NKn") ]
      in
      let worst = Float.max l_kn (Float.max l_nk l_nkn) in
      wins := (worst /. best) :: !wins;
      Fmt.pr "%-4d (%d,%d,%d)%8s %10.4f %10.4f %10.4f   %s@." ci m k n ""
        l_kn l_nk l_nkn bname)
    gmm_configs;
  Fmt.pr "geo-mean best/worst layout gap: %.2fx@." (geomean !wins)

let run () =
  section "Figure 1: operator latency under different data layouts";
  let ms =
    pick
      ~smoke:[ Machine.intel_cpu ]
      ~quick:[ Machine.intel_cpu; Machine.nvidia_gpu ]
      ~full:[ Machine.intel_cpu; Machine.nvidia_gpu ]
  in
  List.iter
    (fun m ->
      run_c2d m;
      run_gmm m)
    ms
