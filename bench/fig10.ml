(* Figure 10: end-to-end inference performance.

   Networks (scaled): ResNet-18, MobileNet-V2, BERT (base/tiny), ResNet3D —
   compiled by six systems: the vendor-compiler stand-in (OpenVINO /
   TensorRT / Torch role), AutoTVM-like, Ansor-like, ALT, and the two
   ablation variants ALT-OL (loop-only, fixed channels-last layouts) and
   ALT-WP (layout tuning without the fusion-enabling propagation). *)

open Alt
open Bench_util

let systems =
  [
    Graph_tuner.Gvendor; Graph_tuner.Gautotvm; Graph_tuner.Gansor;
    Graph_tuner.Galt; Graph_tuner.Galt_ol; Graph_tuner.Galt_wp;
  ]

let budget = pick ~smoke:40 ~quick:160 ~full:600
let tune_points = pick ~smoke:4_000 ~quick:12_000 ~full:40_000
let run_points = pick ~smoke:20_000 ~quick:60_000 ~full:200_000

let models machine =
  let base =
    [
      Zoo.resnet18 ~batch:1 ();
      Zoo.mobilenet_v2 ~batch:1 ();
      Zoo.bert_base ~batch:1 ();
      Zoo.resnet3d_18 ~batch:1 ();
    ]
  in
  let b16 = [ Zoo.resnet18 ~batch:4 (); Zoo.bert_base ~batch:4 () ] in
  match scale with
  | Smoke -> [ Zoo.mobilenet_v2 ~batch:1 ~size:16 () ]
  | Quick -> if machine == Machine.intel_cpu then base else [ List.nth base 0; List.nth base 1 ]
  | Full -> base @ b16

let run () =
  section "Figure 10: end-to-end inference performance";
  Fmt.pr "(latency in simulated ms; budget %d measurements per network)@."
    budget;
  List.iter
    (fun machine ->
      Fmt.pr "@.--- %a ---@." Machine.pp machine;
      List.iter
        (fun (m : Zoo.spec) ->
          let lats =
            List.map
              (fun sys ->
                let tg =
                  Graph_tuner.tune_graph ~system:sys ~machine ~budget
                    ~max_points:tune_points m.Zoo.graph
                in
                let r = Graph_tuner.run ~max_points:run_points tg ~machine in
                ( Graph_tuner.gsystem_name sys,
                  (r.Compile.latency_ms,
                   tg.Graph_tuner.compiled.Compile.plan.Propagate.conversions,
                   tg.Graph_tuner.compiled.Compile.plan.Propagate.fused_ops) ))
              systems
          in
          Fmt.pr "%-8s@." m.Zoo.name;
          List.iter
            (fun (nm, (l, conv, fused)) ->
              Fmt.pr "  %-10s %9.3f ms   (conversions=%d, fused=%d)@." nm l
                conv fused)
            lats;
          let lat nm = match List.assoc nm lats with l, _, _ -> l in
          Fmt.pr "  ALT speedup: vs ansor %.2fx, vs alt-ol %.2fx, vs alt-wp \
                  %.2fx, vs vendor %.2fx@."
            (lat "ansor" /. lat "alt")
            (lat "alt-ol" /. lat "alt")
            (lat "alt-wp" /. lat "alt")
            (lat "vendor" /. lat "alt"))
        (models machine))
    machines
