(* Table 3: profiled counters for several layouts of the first ResNet
   layer (padding + C2D + bias + ReLU), scaled.

   Rows: NHWO, NOHW, the blocked N O/ot H W ot, and the joint-tuned ALT
   layout N H/ht W/wt O/ot ht wt ot.  Columns: issued instructions, L1 load
   instructions, L1 misses, L1 store instructions, latency — the paper's
   counters on our machine model. *)

open Alt
open Bench_util

let machine = Machine.intel_cpu
let loop_budget = pick ~smoke:8 ~quick:32 ~full:96
let max_points = pick ~smoke:20_000 ~quick:120_000 ~full:400_000

(* first layer of scaled R18: 3->16 channels, 7x7 window, stride 2 *)
let op =
  Ops.c2d ~name:"r18l0" ~inp:"Inp" ~ker:"Ker" ~out:"Conv" ~n:1 ~i:3 ~o:16
    ~h:16 ~w:16 ~kh:7 ~kw:7 ~stride:2 ()

let fused_chain () =
  [
    Ops.bias_add ~name:"bias" ~inp:"Conv" ~bias:"B" ~out:"Convb"
      ~shape:[| 1; 16; 16; 16 |] ~dim:1 ();
    Ops.relu ~name:"relu" ~inp:"Convb" ~out:"Convr" ~shape:[| 1; 16; 16; 16 |] ();
  ]

let tune_with choice =
  let task = Measure.make_task ~fused:(fused_chain ()) ~machine ~max_points op in
  let r =
    Tuner.tune_loop_only ~explorer:Tuner.Guided ~budget:loop_budget
      ~layouts:[ choice ] task
  in
  (r.Tuner.best_choice, r.Tuner.best_schedule)

let profile name (choice, schedule) =
  let task = Measure.make_task ~fused:(fused_chain ()) ~machine ~max_points op in
  match Measure.measure task choice schedule with
  | Measure.Ok r ->
      Fmt.pr "%-28s %10.0f %10.0f %9.0f %9.0f %9.4f@." name r.Profiler.insts
        r.Profiler.loads r.Profiler.l1_misses r.Profiler.stores
        r.Profiler.latency_ms
  | o -> Fmt.pr "%-28s (%a)@." name Measure.pp_outcome o

let run () =
  section "Table 3: profiled counters per layout (pad+C2D+bias+ReLU, scaled R18 layer)";
  Fmt.pr "%-28s %10s %10s %9s %9s %9s@." "Layout (Conv)" "#Inst" "#L1-lds"
    "#L1-mis" "#L1-sts" "Lat(ms)";
  profile "NHWO" (tune_with (Templates.channels_last_choice op));
  profile "NOHW" (tune_with (Templates.trivial_choice op));
  profile "N O/ot H W ot (ot=8)" (tune_with (Templates.blocked_choice op ~block:8));
  (* joint-tuned ALT layout *)
  let task = Measure.make_task ~fused:(fused_chain ()) ~machine ~max_points op in
  let r =
    Tuner.tune_alt ~joint_budget:(loop_budget * 2) ~loop_budget task
  in
  profile "N H/ht W/wt O/ot ht wt ot" (r.Tuner.best_choice, r.Tuner.best_schedule);
  Fmt.pr
    "@.(paper's shape: NOHW needs the most instructions and loads because@.";
  Fmt.pr
    " it cannot reuse inputs across SIMD channel groups; channel-innermost@.";
  Fmt.pr " layouts [NHWO / blocked / ALT-tiled] cut both, and the best@.";
  Fmt.pr " latency follows the miss counts)@."
