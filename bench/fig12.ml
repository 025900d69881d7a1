(* Figure 12: the overhead of layout propagation and the necessity of
   Algorithm 1's constraints.

   Subgraphs: padding -> C2D(3x3) -> C2D(1x1), two sizes.  Variants:
   - Ansor      : loop-only tuning, one fixed blocked layout end to end;
   - ALT-FP     : the first C2D's tuned output layout is force-propagated
                  as the second C2D's input layout;
   - ALT-BP     : the second C2D's preferred input layout is forced back
                  onto the first C2D's output;
   - ALT        : both C2Ds tune independently; a conversion operator is
                  inserted between them (the paper's Algorithm 1 behavior).
   Reports the latency decomposition conv1 / conversion / conv2. *)

open Alt
open Bench_util

let machine = Machine.intel_cpu
let loop_budget = pick ~smoke:8 ~quick:24 ~full:64
let max_points = pick ~smoke:5_000 ~quick:20_000 ~full:60_000

type subgraph = { tag : string; n : int; c : int; c2 : int; hw : int }

(* the paper uses 512 channels; 128 keeps the simulation tractable while
   preserving conv >> conversion work *)
let subgraphs =
  [
    { tag = "Sg#1"; n = 1; c = 128; c2 = 128; hw = 7 };
    { tag = "Sg#2"; n = 1; c = 128; c2 = 256; hw = 14 };
  ]

(* the two convolutions of a subgraph *)
let conv_ops (sg : subgraph) =
  let conv1 =
    Ops.c2d ~name:"conv1" ~inp:"xp" ~ker:"k1" ~out:"y1" ~n:sg.n ~i:sg.c
      ~o:sg.c ~h:sg.hw ~w:sg.hw ~kh:3 ~kw:3 ()
  in
  let conv2 =
    Ops.c2d ~name:"conv2" ~inp:"y1" ~ker:"k2" ~out:"y2" ~n:sg.n ~i:sg.c
      ~o:sg.c2 ~h:sg.hw ~w:sg.hw ~kh:1 ~kw:1 ()
  in
  (conv1, conv2)

(* candidate shared layouts: channel-blocked (invertible, so both directions
   of forced propagation are expressible), channels-last, default *)
let candidate_choices (op : Opdef.t) =
  Templates.trivial_choice op
  :: Templates.channels_last_choice op
  :: List.map (fun b -> Templates.blocked_choice op ~block:b) [ 4; 8; 16; 32 ]

(* Loop-tune one conv for each candidate; return (best latency per candidate,
   schedules). *)
let tune_candidates op =
  List.map
    (fun choice ->
      let task = Measure.make_task ~machine ~max_points op in
      let r =
        Tuner.tune_loop_only ~jobs:(effective_jobs ()) ~explorer:Tuner.Guided
          ~budget:loop_budget ~layouts:[ choice ] task
      in
      (choice, r))
    (candidate_choices op)

let best results =
  List.fold_left
    (fun (bc, (br : Tuner.result)) (c, (r : Tuner.result)) ->
      if r.Tuner.best_latency < br.Tuner.best_latency then (c, r) else (bc, br))
    (List.hd results) (List.tl results)

(* conversion cost between conv1's output layout and conv2's input layout *)
let conversion_cost (src : Layout.t) (dst : Layout.t) shape =
  if Layout.equal src dst then 0.0
  else begin
    let prog = Lower.conversion ~src ~dst () in
    let bufs =
      [|
        Layout.pack src (Buffer.random shape);
        Array.make (Layout.num_physical_elements dst) 0.0;
      |]
    in
    let r = Profiler.run ~machine ~max_points prog ~bufs in
    r.Profiler.latency_ms
  end

(* the input layout conv2 reads y1 in, for a given conv2 choice *)
let y1_layout_of (choice : Propagate.choice) = List.assoc "y1" choice.Propagate.in_layouts

let run () =
  section "Figure 12: layout propagation overhead (pad->C2D3x3->C2D1x1)";
  List.iter
    (fun sg ->
      let conv1, conv2 = conv_ops sg in
      let shape_y1 = [| sg.n; sg.c; sg.hw; sg.hw |] in
      let r1 = tune_candidates conv1 in
      let r2 = tune_candidates conv2 in
      (* candidates of conv1 and conv2 are generated from the same layout
         family list, so index i on one side is "the same layout family" on
         the other: forced propagation = forcing the partner to the family
         of the winner's index. *)
      let best_index results =
        let _, i, _ =
          List.fold_left
            (fun (j, bi, bl) (_, (r : Tuner.result)) ->
              if r.Tuner.best_latency < bl then (j + 1, j, r.Tuner.best_latency)
              else (j + 1, bi, bl))
            (0, 0, Float.infinity) results
        in
        i
      in
      let i1 = best_index r1 and i2 = best_index r2 in
      let c1_best, r1_best = best r1 in
      let c2_best, r2_best = best r2 in
      (* --- ALT: independent bests + conversion operator between --- *)
      let conv_ms =
        conversion_cost c1_best.Propagate.out_layout (y1_layout_of c2_best)
          shape_y1
      in
      (* --- ALT-FP: conv2 forced to conv1's layout family --- *)
      let fp =
        let _, r2f = List.nth r2 i1 in
        (r1_best.Tuner.best_latency, 0.0, r2f.Tuner.best_latency)
      in
      (* --- ALT-BP: conv1 forced to conv2's layout family --- *)
      let bp =
        let _, r1b = List.nth r1 i2 in
        (r1b.Tuner.best_latency, 0.0, r2_best.Tuner.best_latency)
      in
      (* --- Ansor: single fixed blocked layout, loop tuning only --- *)
      let fixed1 = Templates.blocked_choice conv1 ~block:(2 * machine.Machine.lanes) in
      let ansor_r1 =
        List.find
          (fun ((c : Propagate.choice), _) ->
            Layout.equal c.Propagate.out_layout fixed1.Propagate.out_layout)
          r1
      in
      let fixed2 = Templates.blocked_choice conv2 ~block:(2 * machine.Machine.lanes) in
      let ansor_r2 =
        List.find
          (fun ((c : Propagate.choice), _) ->
            Layout.equal c.Propagate.out_layout fixed2.Propagate.out_layout)
          r2
      in
      let show name (l1, cv, l2) =
        Fmt.pr "  %-8s conv1=%8.4f  conversion=%8.4f  conv2=%8.4f  total=%8.4f@."
          name l1 cv l2 (l1 +. cv +. l2)
      in
      Fmt.pr "@.%s (C=%d->%d, HW=%d):@." sg.tag sg.c sg.c2 sg.hw;
      show "Ansor"
        ((snd ansor_r1).Tuner.best_latency, 0.0, (snd ansor_r2).Tuner.best_latency);
      show "ALT-FP" fp;
      show "ALT-BP" bp;
      show "ALT"
        (r1_best.Tuner.best_latency, conv_ms, r2_best.Tuner.best_latency))
    subgraphs;
  Fmt.pr
    "@.(paper's shape: the conversion operator costs little relative to the@.";
  Fmt.pr
    " convolutions, and forcing a shared layout in the wrong direction@.";
  Fmt.pr
    " [FP or BP] loses more than the conversion costs; Ansor's single@.";
  Fmt.pr " fixed layout is the slowest)@."
