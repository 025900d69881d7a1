(* Figure 11: efficiency of layout tuning methods.

   Tunes the layouts of the first convolution of ResNet-18 (scaled) with
   three search methods — random sampling, PPO without pretraining, PPO
   pretrained on other workloads — and reports the best-so-far latency as a
   function of the measurement budget. *)

open Alt
open Bench_util

let budget = pick ~smoke:24 ~quick:96 ~full:400
let max_points = pick ~smoke:4_000 ~quick:12_000 ~full:40_000
let machine = Machine.intel_cpu

(* the first C2D of (scaled) ResNet-18: large window, stride 2 *)
let target_op () =
  Ops.c2d ~name:"r18c0" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:3 ~o:16 ~h:16
    ~w:16 ~kh:7 ~kw:7 ~stride:2 ()

(* pretraining workloads (a C2D and a GMM, as in Section 6) *)
let pretrain_agent () =
  let agent = Ppo.create ~seed:17 ~state_dim:Tuner.actor_input_dim () in
  (* representative workloads, including a small-channel strided stem conv
     from the same family as the target (the paper pretrains on C2D and
     GMM workloads drawn from the evaluation distribution) *)
  let workloads =
    [
      Measure.make_task ~machine ~max_points
        (Ops.c2d ~name:"pre1" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:3 ~o:8
           ~h:12 ~w:12 ~kh:5 ~kw:5 ~stride:2 ());
      Measure.make_task ~machine ~max_points
        (Ops.c2d ~name:"pre2" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:16 ~o:32
           ~h:14 ~w:14 ~kh:3 ~kw:3 ());
      Measure.make_task ~machine ~max_points
        (Ops.gmm ~name:"pre3" ~a:"A" ~b:"B" ~out:"C" ~m:64 ~k:64 ~n:64 ());
    ]
  in
  let pre_budget = pick ~smoke:16 ~quick:48 ~full:200 in
  List.iter
    (fun task ->
      ignore
        (Tuner.tune_alt ~seed:17 ~layout_explorer:(`Ppo agent)
           ~seed_layouts:false ~joint_budget:pre_budget ~loop_budget:0 task))
    workloads;
  agent

let best_at history checkpoints =
  List.map
    (fun b ->
      let best =
        List.fold_left
          (fun acc (spent, l) -> if spent <= b then Float.min acc l else acc)
          Float.infinity history
      in
      (b, best))
    checkpoints

let run () =
  section "Figure 11: layout tuning efficiency (Random vs PPO vs PPO-pretrained)";
  let checkpoints =
    List.filter (fun c -> c <= budget) [ budget / 8; budget / 4; budget / 2; (budget * 3) / 4; budget ]
  in
  (* average best-so-far curves over several seeds; single runs of a
     12-proposal search are lottery tickets *)
  let seeds = [ 3; 7; 11 ] in
  let run_method name mk_explorer =
    let runs =
      List.map
        (fun seed ->
          let task = Measure.make_task ~machine ~max_points (target_op ()) in
          let r =
            Tuner.tune_alt ~seed ~layout_explorer:(mk_explorer seed)
              ~seed_layouts:false ~joint_budget:budget ~loop_budget:0 task
          in
          (r, best_at r.Tuner.history checkpoints))
        seeds
    in
    let curves = List.map snd runs in
    let avg =
      List.map
        (fun c ->
          ( fst c,
            geomean
              (List.map
                 (fun curve -> snd (List.find (fun (b, _) -> b = fst c) curve))
                 curves) ))
        (List.hd curves)
    in
    let final = geomean (List.map (fun (r : Tuner.result * _) -> (fst r).Tuner.best_latency) runs) in
    (name, final, avg, List.map fst runs)
  in
  let results =
    [
      run_method "Random" (fun _ -> `Random);
      run_method "PPO-woPret" (fun _ -> `Ppo_fresh);
      run_method "PPO-Pret" (fun _ -> `Ppo (pretrain_agent ()));
    ]
  in
  Fmt.pr "geomean best-so-far latency (ms) over %d seeds:@."
    (List.length seeds);
  Fmt.pr "%-12s %s@." "method"
    (String.concat " "
       (List.map (fun c -> Fmt.str "%9s" (Fmt.str "@%d" c)) checkpoints));
  List.iter
    (fun (name, _, curve, _) ->
      Fmt.pr "%-12s %s@." name
        (String.concat " "
           (List.map (fun (_, l) -> Fmt.str "%9.4f" l) curve)))
    results;
  (* budget needed by each method to reach Random's final quality *)
  (match results with
  | [ (_, rnd_final, _, _); _; _ ] ->
      let threshold = rnd_final *. 1.05 in
      let reach (rs : Tuner.result list) =
        let per =
          List.filter_map
            (fun (r : Tuner.result) ->
              Option.map fst
                (List.find_opt (fun (_, l) -> l <= threshold) r.Tuner.history))
            rs
        in
        if List.length per < List.length rs then None
        else
          Some
            (List.fold_left ( + ) 0 per / List.length per)
      in
      Fmt.pr
        "@.mean budget to reach within 5%% of Random's final latency (%.4f \
         ms):@."
        rnd_final;
      List.iter
        (fun (nm, _, _, rs) ->
          match reach rs with
          | Some b -> Fmt.pr "  %-12s %d measurements@." nm b
          | None -> Fmt.pr "  %-12s not always reached@." nm)
        results
  | _ -> ())
