(* Figure 13: parameter sensitivity — search space size vs budget.

   Compares one-level layout tiling templates against two-level templates
   at the base budget and at 1.5x the budget, end to end, reproducing the
   paper's finding: with the base budget the smaller one-level space wins;
   the larger space needs more budget to pay off. *)

open Alt
open Bench_util

let base_budget = pick ~smoke:40 ~quick:3600 ~full:8000
let tune_points = pick ~smoke:4_000 ~quick:10_000 ~full:40_000
let run_points = pick ~smoke:20_000 ~quick:60_000 ~full:200_000

let models () =
  match scale with
  | Smoke -> [ Zoo.mobilenet_v2 ~batch:1 ~size:16 () ]
  | Quick -> [ Zoo.mobilenet_v2 ~batch:1 () ]
  | Full ->
      [
        Zoo.resnet18 ~batch:1 (); Zoo.mobilenet_v2 ~batch:1 ();
        Zoo.bert_base ~batch:1 (); Zoo.resnet3d_18 ~batch:1 ();
      ]

let variants =
  [
    ("two-level (1.0x budget)", 2, base_budget);
    ("two-level (1.5x budget)", 2, base_budget * 3 / 2);
    ("one-level (1.0x budget)", 1, base_budget);
  ]

let run () =
  section "Figure 13: template depth vs budget (end-to-end, ALT)";
  let machine = Machine.intel_cpu in
  List.iter
    (fun (m : Zoo.spec) ->
      Fmt.pr "@.%s on %a:@." m.Zoo.name Machine.pp machine;
      let lats =
        List.map
          (fun (name, levels, budget) ->
            let tg =
              Graph_tuner.tune_graph ~system:Graph_tuner.Galt ~machine ~budget
                ~levels ~max_points:tune_points m.Zoo.graph
            in
            let r = Graph_tuner.run ~max_points:run_points tg ~machine in
            Fmt.pr "  %-26s %9.3f ms@." name r.Compile.latency_ms;
            (name, r.Compile.latency_ms))
          variants
      in
      let one = List.assoc "one-level (1.0x budget)" lats in
      let two = List.assoc "two-level (1.0x budget)" lats in
      Fmt.pr "  one-level advantage at equal budget: %.1f%%@."
        ((two -. one) /. two *. 100.0))
    (models ())
