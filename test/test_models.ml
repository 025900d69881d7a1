(* Model zoo tests: every network builds, its reference execution runs, and
   — the strongest end-to-end check — compiled execution (with and without
   tuned layouts) matches the reference interpreter exactly. *)

open Alt_tensor
module Graph = Alt_graph.Graph
module Propagate = Alt_graph.Propagate
module Compile = Alt_graph.Compile
module Zoo = Alt_models.Zoo
module Machine = Alt_machine.Machine
module Tuner = Alt_tuner.Tuner
module Graph_tuner = Alt_tuner.Graph_tuner
module Measure = Alt_tuner.Measure
module Scheduler = Alt_tuner.Scheduler
module Ops = Alt_graph.Ops
module Lower = Alt_ir.Lower
module Opdef = Alt_ir.Opdef
module Workload = Alt_serve.Workload

let check_model_structure () =
  let r18 = Zoo.resnet18 () in
  let mv2 = Zoo.mobilenet_v2 () in
  let bb = Zoo.bert_base () in
  let r3d = Zoo.resnet3d_18 () in
  let n_complex g = List.length (Graph.complex_nodes g) in
  (* R18: stem + 8 stage convs x2 + 3 downsamples + fc *)
  Alcotest.(check int) "r18 complex ops" 21 (n_complex r18.Zoo.graph);
  Alcotest.(check bool) "mv2 complex ops" true (n_complex mv2.Zoo.graph >= 15);
  (* BB: per layer 4 gmm + 2 bmm + 2 ffn gmm = 8; 2 layers *)
  Alcotest.(check int) "bert complex ops" 16 (n_complex bb.Zoo.graph);
  Alcotest.(check bool) "r3d complex ops" true (n_complex r3d.Zoo.graph >= 13)

let compiled_matches_reference ?(tol = 1e-3) name (g : Graph.t) =
  let feeds = Graph.random_feeds g in
  let ref_env = Graph.reference_execute g ~feeds in
  let choices = Compile.trivial_choices g in
  let plan = Propagate.plan g ~choices in
  let compiled = Compile.compile g plan in
  let r = Compile.execute compiled ~feeds in
  Alcotest.(check bool) (name ^ " unsampled") false r.Compile.sampled;
  List.iter
    (fun (tname, actual) ->
      let expected = List.assoc tname ref_env in
      if not (Buffer.allclose ~tol expected actual) then
        Alcotest.failf "%s: %s differs by %g" name tname
          (Buffer.max_abs_diff expected actual))
    r.Compile.outputs

let test_r18_tiny_correct () =
  let m = Zoo.resnet18 ~size:8 ~base:4 () in
  compiled_matches_reference "r18" m.Zoo.graph

let test_mv2_tiny_correct () =
  let m = Zoo.mobilenet_v2 ~size:8 () in
  compiled_matches_reference "mv2" m.Zoo.graph

let test_bert_tiny_correct () =
  let m = Zoo.bert_tiny () in
  compiled_matches_reference ~tol:5e-3 "bert" m.Zoo.graph

let test_r3d_tiny_correct () =
  let m = Zoo.resnet3d_18 ~size:8 ~depth:4 ~base:4 () in
  compiled_matches_reference "r3d" m.Zoo.graph

(* The full loop: tune a small network with ALT, then verify the tuned,
   propagated, fused, conversion-inserted execution is still bit-correct
   against the naive interpreter. *)
let test_tuned_r18_correct () =
  let m = Zoo.resnet18 ~size:8 ~base:4 () in
  let g = m.Zoo.graph in
  let tg =
    Graph_tuner.tune_graph ~system:Graph_tuner.Galt ~machine:Machine.intel_cpu
      ~budget:60 ~max_points:8000 g
  in
  let feeds = Graph.random_feeds g in
  let ref_env = Graph.reference_execute g ~feeds in
  let r = Compile.execute tg.Graph_tuner.compiled ~feeds in
  List.iter
    (fun (tname, actual) ->
      let expected = List.assoc tname ref_env in
      if not (Buffer.allclose ~tol:1e-3 expected actual) then
        Alcotest.failf "tuned r18: %s differs by %g" tname
          (Buffer.max_abs_diff expected actual))
    r.Compile.outputs

let test_tuned_bert_correct () =
  let m = Zoo.bert_tiny () in
  let g = m.Zoo.graph in
  let tg =
    Graph_tuner.tune_graph ~system:Graph_tuner.Galt_wp
      ~machine:Machine.arm_cpu ~budget:40 ~max_points:8000 g
  in
  let feeds = Graph.random_feeds g in
  let ref_env = Graph.reference_execute g ~feeds in
  let r = Compile.execute tg.Graph_tuner.compiled ~feeds in
  List.iter
    (fun (tname, actual) ->
      let expected = List.assoc tname ref_env in
      if not (Buffer.allclose ~tol:5e-3 expected actual) then
        Alcotest.failf "tuned bert: %s differs by %g" tname
          (Buffer.max_abs_diff expected actual))
    r.Compile.outputs

(* ------------------------------------------------------------------ *)
(* Lowered-program identity                                           *)
(* ------------------------------------------------------------------ *)

(* Digests of [Measure.program_key], the canonical program form the
   measurement cache keys by, over three program sets:
   - every candidate [Tuner.tune_op] lowers, per operator kind, under all
     six systems at seed 1 and budget 16 (keyed by candidate, so a
     candidate that lowers to another program fails too);
   - conversions and layout-writing elementwise programs whose
     destination carries pad and unfold, which no quick-zoo compile emits;
   - every compiled stage of the quick zoo tuned under one global budget.
   A refactor of Layout's symbolic walks or of Lower that is meant to
   keep trajectories must leave every value unchanged. *)
let digest_keys keys = Digest.to_hex (Digest.string (String.concat "\n" keys))

let explored_keys kind =
  let op =
    Workload.op_of_spec
      {
        Workload.default_op with
        kind;
        channels = 4;
        out_channels = 8;
        spatial = 6;
      }
  in
  List.concat_map
    (fun system ->
      let task = Measure.make_task ~machine:Machine.intel_cpu op in
      ignore (Tuner.tune_op ~seed:1 ~system ~budget:16 task : Tuner.result);
      Hashtbl.fold
        (fun candidate prog acc ->
          let key =
            match prog with Some p -> Measure.program_key p | None -> "-"
          in
          (Digest.to_hex candidate ^ " " ^ key) :: acc)
        task.Measure.lcache []
      |> List.sort compare)
    (List.map snd Tuner.systems)

let test_explored_keys_pinned () =
  List.iter
    (fun (kind, want) ->
      Alcotest.(check string) kind want (digest_keys (explored_keys kind)))
    [
      ("c2d", "497e377b71bf25ffdacfa84c66c6becb");
      ("dil", "e66df06670bcd8090676bf6963efc538");
      ("grp", "78e3e12fd2041c7de07b6f090a88f150");
      ("dep", "5d094e76a711ff0fb810e9e02cd3b056");
      ("c1d", "5a9056c90f7e714a1b0b45e8a4981041");
      ("c3d", "8104ab459de5f604f6ad638c6c19c823");
      ("gmm", "09b560ddcada9ee8e5e522b9d1cde105");
      ("t2d", "79da2dec1cdbe6f76bf5a71fdc15c8ca");
    ]

let test_directed_keys_pinned () =
  let trivial = Layout.create in
  let conversion src dst = Lower.conversion ~src ~dst () in
  let assign op out_layout =
    let layouts name = trivial (List.assoc name op.Opdef.inputs) in
    Lower.lower_assign_to ~op ~layouts ~out_layout
  in
  let base = trivial [| 3; 7 |] in
  let relu shape = Ops.relu ~name:"relu" ~inp:"X" ~out:"Y" ~shape () in
  let pad2d =
    Ops.pad2d ~name:"pad" ~inp:"X" ~out:"Xp" ~n:1 ~c:4 ~h:6 ~w:6 ~pad:1 ()
  in
  let progs =
    [
      conversion
        (Layout.reorder (trivial [| 4; 6; 8 |]) [| 2; 0; 1 |])
        (Layout.pad
           (Layout.split (trivial [| 4; 6; 8 |]) ~dim:2 ~factors:[ 2; 4 ])
           ~dim:1 ~lo:0 ~hi:2);
      conversion (trivial [| 10 |])
        (Layout.unfold (trivial [| 10 |]) ~dim:0 ~tile:4 ~stride:2);
      conversion base (Layout.unfold base ~dim:1 ~tile:3 ~stride:2);
      conversion (trivial [| 3; 5 |])
        (Layout.unfold (trivial [| 3; 5 |]) ~dim:1 ~tile:3 ~stride:3);
      conversion base (Layout.pad base ~dim:1 ~lo:1 ~hi:2);
      conversion base
        (Layout.fuse (Layout.pad base ~dim:1 ~lo:2 ~hi:1) ~dim:0 ~count:2);
      conversion
        (Layout.reorder base [| 1; 0 |])
        (Layout.reorder
           (Layout.unfold (Layout.pad base ~dim:1 ~lo:1 ~hi:1) ~dim:1 ~tile:4
              ~stride:3)
           [| 2; 0; 1 |]);
      assign (relu [| 2; 9 |])
        (Layout.unfold (trivial [| 2; 9 |]) ~dim:1 ~tile:3 ~stride:2);
      assign (relu [| 3; 7 |]) (Layout.pad base ~dim:0 ~lo:1 ~hi:0);
      assign (relu [| 3; 7 |])
        (Layout.split (Layout.pad base ~dim:1 ~lo:0 ~hi:1) ~dim:1
           ~factors:[ 2; 4 ]);
      assign pad2d
        (Layout.reorder
           (Layout.split (trivial [| 1; 4; 8; 8 |]) ~dim:1 ~factors:[ 2; 2 ])
           [| 0; 1; 3; 4; 2 |]);
      assign pad2d
        (Layout.unfold
           (Layout.pad (trivial [| 1; 4; 8; 8 |]) ~dim:1 ~lo:0 ~hi:2)
           ~dim:2 ~tile:4 ~stride:3);
    ]
  in
  Alcotest.(check string) "directed" "d0218c31d7fd0da3d68a55febf7aafe2"
    (digest_keys (List.map Measure.program_key progs))

let quick_zoo () =
  [
    ("r18", (Zoo.resnet18 ~size:8 ~base:4 ()).Zoo.graph);
    ("mv2", (Zoo.mobilenet_v2 ~size:8 ()).Zoo.graph);
    ("bt", (Zoo.bert_tiny ()).Zoo.graph);
    ("r3d", (Zoo.resnet3d_18 ~size:8 ~depth:4 ~base:4 ()).Zoo.graph);
  ]

let test_zoo_stage_keys_pinned () =
  let runs =
    List.map
      (fun system ->
        snd
          (Graph_tuner.tune_models ~seed:1 ~max_points:8_000
             ~policy:Scheduler.Gradient ~system ~machine:Machine.intel_cpu
             ~budget:192 (quick_zoo ())))
      (List.map snd Graph_tuner.gsystems)
  in
  List.iter
    (fun (key, want) ->
      Alcotest.(check string) key want
        (digest_keys
           (List.concat_map
              (fun tuned ->
                List.map
                  (fun (s : Compile.compiled_stage) ->
                    s.Compile.label ^ " " ^ Measure.program_key s.Compile.prog)
                  (List.assoc key tuned).Graph_tuner.compiled.Compile.stages)
              runs)))
    [
      ("r18", "2866ec5ad425da0d6b7e95fe30d5c47f");
      ("mv2", "84388957f664e84015dfa7f5834cf96d");
      ("bt", "51580e38d0f32cc535d619c2c722f78f");
      ("r3d", "51ca087951c34c18df215c224f956dca");
    ]

let () =
  Alcotest.run "alt_models"
    [
      ( "structure",
        [ Alcotest.test_case "complex op counts" `Quick check_model_structure ]
      );
      ( "correctness",
        [
          Alcotest.test_case "resnet18 tiny" `Quick test_r18_tiny_correct;
          Alcotest.test_case "mobilenet-v2 tiny" `Quick test_mv2_tiny_correct;
          Alcotest.test_case "bert tiny" `Quick test_bert_tiny_correct;
          Alcotest.test_case "resnet3d tiny" `Quick test_r3d_tiny_correct;
        ] );
      ( "tuned",
        [
          Alcotest.test_case "ALT-tuned resnet is correct" `Slow
            test_tuned_r18_correct;
          Alcotest.test_case "ALT-WP-tuned bert is correct" `Slow
            test_tuned_bert_correct;
        ] );
      ( "program-keys",
        [
          Alcotest.test_case "explored candidates pinned" `Quick
            test_explored_keys_pinned;
          Alcotest.test_case "pad/unfold destinations pinned" `Quick
            test_directed_keys_pinned;
          Alcotest.test_case "tuned quick-zoo stages pinned" `Quick
            test_zoo_stage_keys_pinned;
        ] );
    ]
