(* Tests for lowering, schedules, programs, and the machine profiler.

   The central invariant: for ANY combination of data layouts and loop
   schedules, the lowered program must compute exactly the same tensor as
   the naive reference interpreter.  That is the paper's claim that layout
   manipulation needs no operator re-implementation, made executable. *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Sexpr = Alt_ir.Sexpr
module Schedule = Alt_ir.Schedule
module Lower = Alt_ir.Lower
module Program = Alt_ir.Program
module Ops = Alt_graph.Ops
module Graph = Alt_graph.Graph
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Cache = Alt_machine.Cache

let trivial shape = Layout.create shape

let layouts_of (assoc : (string * Layout.t) list) name =
  match List.assoc_opt name assoc with
  | Some l -> l
  | None -> invalid_arg ("test: no layout for " ^ name)

let check_close ?(tol = 1e-4) msg expected actual =
  if not (Buffer.allclose ~tol expected actual) then
    Alcotest.failf "%s: max diff %g" msg (Buffer.max_abs_diff expected actual)

(* Reference pipeline: reference-eval [op] on random inputs, then run the
   lowered program and compare logical outputs. *)
let run_and_compare ?(machine = Machine.intel_cpu) ?tol op ~layouts ~out_layout
    ?(fused = []) ~schedule () =
  let inputs =
    List.mapi
      (fun i (n, s) -> (n, Buffer.random ~seed:(7 * (i + 1)) s))
      op.Opdef.inputs
  in
  let expected = Opdef.reference_eval op inputs in
  let prog = Lower.lower ~op ~layouts ~out_layout ~fused ~schedule () in
  let outs, result = Runtime.run_logical ~machine prog ~inputs in
  let actual = List.assoc op.Opdef.out_name outs in
  check_close ?tol ("output of " ^ op.Opdef.name) expected actual;
  (prog, outs, result, inputs, expected)

(* ------------------------------------------------------------------ *)
(* GMM                                                                *)
(* ------------------------------------------------------------------ *)

let small_gmm () = Ops.gmm ~name:"gmm" ~a:"A" ~b:"B" ~out:"C" ~m:8 ~k:12 ~n:16 ()

let test_gmm_trivial () =
  let op = small_gmm () in
  let layouts = layouts_of [ ("A", trivial [| 8; 12 |]); ("B", trivial [| 12; 16 |]) ] in
  let schedule = Schedule.default ~rank:2 ~nred:1 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 8; 16 |]) ~schedule ())

let test_gmm_transposed_b () =
  (* the paper's NK layout: B stored transposed *)
  let op = small_gmm () in
  let bl = Layout.reorder (trivial [| 12; 16 |]) [| 1; 0 |] in
  let layouts = layouts_of [ ("A", trivial [| 8; 12 |]); ("B", bl) ] in
  let schedule = Schedule.default ~rank:2 ~nred:1 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 8; 16 |]) ~schedule ())

let nkn_layouts () =
  (* the paper's NKn custom layout, m_t = n_t = k_t = 4 *)
  let block2 l d0 f0 d1 f1 =
    let s = Layout.physical_shape l in
    let l = Layout.split l ~dim:d0 ~factors:[ s.(d0) / f0; f0 ] in
    let s = Layout.physical_shape l in
    let l = Layout.split l ~dim:d1 ~factors:[ s.(d1) / f1; f1 ] in
    (* [X/f0; f0; Y/f1; f1] -> [X/f0; Y/f1; f0; f1] *)
    Layout.reorder l [| 0; 2; 1; 3 |]
  in
  let c = block2 (trivial [| 8; 16 |]) 0 4 2 4 in
  let a = block2 (trivial [| 8; 12 |]) 0 4 2 4 in
  let b = block2 (trivial [| 12; 16 |]) 0 4 2 4 in
  (a, b, c)

let test_gmm_nkn () =
  let op = small_gmm () in
  let a, b, c = nkn_layouts () in
  let layouts = layouts_of [ ("A", a); ("B", b) ] in
  let schedule =
    Schedule.default ~rank:4 ~nred:1
    |> (fun s -> Schedule.split s ~dim:2 ~inner:4)
    |> Schedule.vectorize
  in
  ignore (run_and_compare op ~layouts ~out_layout:c ~schedule ())

let gmm_schedule_gen =
  let open QCheck2.Gen in
  let* t0 = oneofl [ 1; 2; 4; 8 ] in
  let* t1 = oneofl [ 1; 4; 16 ] in
  let* rt = oneofl [ 1; 3; 12 ] in
  let* ro = bool in
  let* vec = bool in
  let* par = int_range 0 2 in
  let* unroll = bool in
  let s = Schedule.default ~rank:2 ~nred:1 in
  let s = Schedule.split s ~dim:0 ~inner:t0 in
  let s = Schedule.split s ~dim:1 ~inner:t1 in
  let s = Schedule.split_reduce s ~index:0 ~inner:rt in
  let s = Schedule.reorder_reduce_outer s ro in
  let s = if vec then Schedule.vectorize s else s in
  let s = Schedule.parallel s par in
  let s = if unroll then Schedule.unroll s else s in
  return s

let prop_gmm_schedules_preserve_semantics =
  QCheck2.Test.make ~count:40 ~name:"any GMM schedule preserves semantics"
    gmm_schedule_gen (fun schedule ->
      let op = small_gmm () in
      let layouts =
        layouts_of [ ("A", trivial [| 8; 12 |]); ("B", trivial [| 12; 16 |]) ]
      in
      let inputs =
        List.mapi (fun i (n, s) -> (n, Buffer.random ~seed:(i + 1) s)) op.Opdef.inputs
      in
      let expected = Opdef.reference_eval op inputs in
      let prog =
        Lower.lower ~op ~layouts ~out_layout:(trivial [| 8; 16 |]) ~schedule ()
      in
      let outs, _ = Runtime.run_logical prog ~inputs in
      Buffer.allclose expected (List.assoc "C" outs))

(* ------------------------------------------------------------------ *)
(* C2D under layout transformations                                   *)
(* ------------------------------------------------------------------ *)

let small_c2d ?(stride = 1) ?(dilation = 1) () =
  Ops.c2d ~name:"c2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:8 ~w:8
    ~kh:3 ~kw:3 ~stride ~dilation ()

let c2d_trivial_layouts (op : Opdef.t) =
  List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs

let test_c2d_trivial () =
  let op = small_c2d () in
  let layouts = layouts_of (c2d_trivial_layouts op) in
  let schedule = Schedule.default ~rank:4 ~nred:3 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 1; 8; 8; 8 |]) ~schedule ())

let test_c2d_nhwo () =
  (* NHWO output storage = reorder [0;2;3;1] of logical NOHW *)
  let op = small_c2d () in
  let layouts = layouts_of (c2d_trivial_layouts op) in
  let out_layout = Layout.reorder (trivial [| 1; 8; 8; 8 |]) [| 0; 2; 3; 1 |] in
  let schedule = Schedule.vectorize (Schedule.default ~rank:4 ~nred:3) in
  ignore (run_and_compare op ~layouts ~out_layout ~schedule ())

(* The full ALT C2D tiling template of Section 5.1, built by hand:
   output N H/ht W/wt O/ot ht wt ot; input unfolded on H and W; weight
   O/ot' I/it' KH KW it' ot'. *)
let alt_c2d_layouts ~n ~i ~o ~h ~w ~kh ~kw ~stride ~dilation ~ht ~wt ~ot ~it
    ~it' ~ot' =
  ignore n;
  let out =
    let l = trivial [| n; o; h; w |] in
    let l = Layout.split l ~dim:1 ~factors:[ o / ot; ot ] in
    let l = Layout.split l ~dim:3 ~factors:[ h / ht; ht ] in
    let l = Layout.split l ~dim:5 ~factors:[ w / wt; wt ] in
    Layout.reorder l [| 0; 3; 5; 1; 4; 6; 2 |]
  in
  let hin = (stride * (h - 1)) + (dilation * (kh - 1)) + 1 in
  let win = (stride * (w - 1)) + (dilation * (kw - 1)) + 1 in
  let bh = (stride * ht) + (dilation * (kh - 1)) + 1 - stride in
  let bw = (stride * wt) + (dilation * (kw - 1)) + 1 - stride in
  let inp =
    let l = trivial [| n; i; hin; win |] in
    let l = Layout.split l ~dim:1 ~factors:[ i / it; it ] in
    let l = Layout.unfold l ~dim:3 ~tile:bh ~stride:(stride * ht) in
    let l = Layout.unfold l ~dim:5 ~tile:bw ~stride:(stride * wt) in
    Layout.reorder l [| 0; 3; 5; 1; 4; 6; 2 |]
  in
  let ker =
    let l = trivial [| o; i; kh; kw |] in
    let l = Layout.split l ~dim:0 ~factors:[ o / ot'; ot' ] in
    let l = Layout.split l ~dim:2 ~factors:[ i / it'; it' ] in
    Layout.reorder l [| 0; 2; 4; 5; 3; 1 |]
  in
  (out, inp, ker)

let test_c2d_alt_template () =
  let op = small_c2d () in
  let out, inp, ker =
    alt_c2d_layouts ~n:1 ~i:4 ~o:8 ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:1 ~dilation:1
      ~ht:4 ~wt:4 ~ot:4 ~it:2 ~it':2 ~ot':4
  in
  let layouts = layouts_of [ ("X", inp); ("K", ker) ] in
  let schedule =
    Schedule.default ~rank:7 ~nred:3
    |> Schedule.vectorize
    |> (fun s -> Schedule.reorder_reduce_outer s true)
    |> (fun s -> Schedule.parallel s 1)
  in
  let prog, _, _, _, _ =
    run_and_compare op ~layouts ~out_layout:out ~schedule ()
  in
  (* the unfolded input layout must expand storage *)
  let inp_slot = prog.Program.slots.(Program.slot_index prog "X") in
  Alcotest.(check bool) "expansion" true
    (Layout.expansion_ratio inp_slot.Program.layout > 1.0)

let test_c2d_alt_template_strided () =
  let op = small_c2d ~stride:2 () in
  let out, inp, ker =
    alt_c2d_layouts ~n:1 ~i:4 ~o:8 ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:2 ~dilation:1
      ~ht:4 ~wt:2 ~ot:8 ~it:4 ~it':4 ~ot':2
  in
  let layouts = layouts_of [ ("X", inp); ("K", ker) ] in
  let schedule = Schedule.default ~rank:7 ~nred:3 in
  ignore (run_and_compare op ~layouts ~out_layout:out ~schedule ())

let test_c2d_alt_template_dilated () =
  let op = small_c2d ~dilation:2 () in
  let out, inp, ker =
    alt_c2d_layouts ~n:1 ~i:4 ~o:8 ~h:8 ~w:8 ~kh:3 ~kw:3 ~stride:1 ~dilation:2
      ~ht:2 ~wt:4 ~ot:4 ~it:2 ~it':4 ~ot':4
  in
  let layouts = layouts_of [ ("X", inp); ("K", ker) ] in
  let schedule = Schedule.default ~rank:7 ~nred:3 in
  ignore (run_and_compare op ~layouts ~out_layout:out ~schedule ())

(* ------------------------------------------------------------------ *)
(* Other complex operators, spot-checked with a tuned-ish setup        *)
(* ------------------------------------------------------------------ *)

let test_grp () =
  let op =
    Ops.grp ~name:"grp" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8 ~o:8 ~h:6 ~w:6
      ~kh:3 ~kw:3 ~groups:4 ()
  in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let out_layout = Layout.reorder (trivial [| 1; 8; 6; 6 |]) [| 0; 2; 3; 1 |] in
  let schedule = Schedule.default ~rank:4 ~nred:3 in
  ignore (run_and_compare op ~layouts ~out_layout ~schedule ())

let test_dep () =
  let op =
    Ops.dep ~name:"dep" ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~c:6 ~h:6 ~w:6 ~kh:3
      ~kw:3 ~stride:2 ()
  in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let schedule = Schedule.default ~rank:4 ~nred:2 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 2; 6; 6; 6 |]) ~schedule ())

let test_c1d () =
  let op = Ops.c1d ~name:"c1d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:2 ~i:4 ~o:6 ~w:10 ~kw:3 () in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let schedule = Schedule.default ~rank:3 ~nred:2 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 2; 6; 10 |]) ~schedule ())

let test_c3d () =
  let op =
    Ops.c3d ~name:"c3d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:3 ~o:4 ~d:4 ~h:4
      ~w:4 ~kd:3 ~kh:3 ~kw:3 ()
  in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let out_layout =
    Layout.reorder (trivial [| 1; 4; 4; 4; 4 |]) [| 0; 2; 3; 4; 1 |]
  in
  let schedule = Schedule.default ~rank:5 ~nred:4 in
  ignore (run_and_compare op ~layouts ~out_layout ~schedule ())

let test_t2d () =
  let op = Ops.t2d ~name:"t2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:4 ~h:6 ~w:6 ~kh:3 ~kw:3 () in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let schedule = Schedule.default ~rank:4 ~nred:3 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 1; 4; 6; 6 |]) ~schedule ())

let test_t3d () =
  let op =
    Ops.t3d ~name:"t3d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:2 ~o:3 ~d:4 ~h:4
      ~w:4 ~kd:3 ~kh:3 ~kw:3 ()
  in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let schedule = Schedule.default ~rank:5 ~nred:4 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 1; 3; 4; 4; 4 |]) ~schedule ())

let test_bmm () =
  let op = Ops.bmm ~name:"bmm" ~a:"A" ~b:"B" ~out:"C" ~batch:3 ~m:4 ~k:5 ~n:6 () in
  let layouts =
    layouts_of [ ("A", trivial [| 3; 4; 5 |]); ("B", trivial [| 3; 5; 6 |]) ]
  in
  let schedule = Schedule.default ~rank:3 ~nred:1 in
  ignore (run_and_compare op ~layouts ~out_layout:(trivial [| 3; 4; 6 |]) ~schedule ())

(* ------------------------------------------------------------------ *)
(* Fusion                                                             *)
(* ------------------------------------------------------------------ *)

let test_fused_bias_relu () =
  let op = small_c2d () in
  let shape = [| 1; 8; 8; 8 |] in
  let bias = Ops.bias_add ~name:"bias" ~inp:"Y" ~bias:"B" ~out:"Yb" ~shape ~dim:1 () in
  let relu = Ops.relu ~name:"relu" ~inp:"Yb" ~out:"Yr" ~shape () in
  let out_layout = Layout.reorder (trivial shape) [| 0; 2; 3; 1 |] in
  let layouts =
    layouts_of
      (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs
      @ [ ("B", trivial [| 8 |]) ])
  in
  let fused =
    [
      { Lower.fop = bias; fout_layout = out_layout };
      { Lower.fop = relu; fout_layout = out_layout };
    ]
  in
  let schedule =
    Schedule.default ~rank:4 ~nred:3
    |> (fun s -> Schedule.split s ~dim:1 ~inner:4)
    |> (fun s -> Schedule.reorder_reduce_outer s true)
    |> Schedule.vectorize
  in
  let inputs =
    [
      ("X", Buffer.random ~seed:1 [| 1; 4; 10; 10 |]);
      ("K", Buffer.random ~seed:2 [| 8; 4; 3; 3 |]);
      ("B", Buffer.random ~seed:3 [| 8 |]);
    ]
  in
  let conv_ref = Opdef.reference_eval op (List.filteri (fun i _ -> i < 2) inputs) in
  let bias_ref = Opdef.reference_eval bias [ ("Y", conv_ref); ("B", List.assoc "B" inputs) ] in
  let relu_ref = Opdef.reference_eval relu [ ("Yb", bias_ref) ] in
  let prog = Lower.lower ~op ~layouts ~out_layout ~fused ~schedule () in
  let outs, _ = Runtime.run_logical prog ~inputs in
  check_close "fused conv" conv_ref (List.assoc "Y" outs);
  check_close "fused bias" bias_ref (List.assoc "Yb" outs);
  check_close "fused relu" relu_ref (List.assoc "Yr" outs)

let test_fusion_conflict_detected () =
  let op = small_c2d () in
  let shape = [| 1; 8; 8; 8 |] in
  let relu = Ops.relu ~name:"relu" ~inp:"Y" ~out:"Yr" ~shape () in
  let out_layout = Layout.reorder (trivial shape) [| 0; 2; 3; 1 |] in
  let conflicting = Layout.split (trivial shape) ~dim:1 ~factors:[ 2; 4 ] in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  Alcotest.(check bool) "conflict raises" true
    (try
       ignore
         (Lower.lower ~op ~layouts ~out_layout
            ~fused:[ { Lower.fop = relu; fout_layout = conflicting } ]
            ~schedule:(Schedule.default ~rank:4 ~nred:3) ());
       false
     with Lower.Lower_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Conversion programs and layout-emitting elementwise ops             *)
(* ------------------------------------------------------------------ *)

let test_conversion_program () =
  let shape = [| 4; 6; 8 |] in
  let src = Layout.reorder (trivial shape) [| 2; 0; 1 |] in
  let dst =
    let l = Layout.split (trivial shape) ~dim:2 ~factors:[ 2; 4 ] in
    Layout.pad l ~dim:1 ~lo:0 ~hi:2
  in
  let prog = Lower.conversion ~src ~dst () in
  let logical = Buffer.random ~seed:9 shape in
  let bufs =
    [| Layout.pack src logical;
       Array.make (Layout.num_physical_elements dst) Float.nan |]
  in
  let _ = Profiler.run prog ~bufs in
  check_close "conversion = pack" (Layout.pack dst logical) bufs.(1)

let test_conversion_to_unfolded () =
  let shape = [| 10 |] in
  let src = trivial shape in
  let dst = Layout.unfold (trivial shape) ~dim:0 ~tile:4 ~stride:2 in
  let prog = Lower.conversion ~src ~dst () in
  let logical = Buffer.iota shape in
  let bufs =
    [| Layout.pack src logical;
       Array.make (Layout.num_physical_elements dst) Float.nan |]
  in
  let _ = Profiler.run prog ~bufs in
  check_close "unfold conversion" (Layout.pack dst logical) bufs.(1)

let test_assign_to_advanced_layout () =
  (* pad2d emitting a blocked+padded layout directly (Fig. 5b) *)
  let op = Ops.pad2d ~name:"pad" ~inp:"X" ~out:"Xp" ~n:1 ~c:4 ~h:6 ~w:6 ~pad:1 () in
  let out_shape = [| 1; 4; 8; 8 |] in
  let out_layout =
    let l = Layout.split (trivial out_shape) ~dim:1 ~factors:[ 2; 2 ] in
    Layout.reorder l [| 0; 1; 3; 4; 2 |]
  in
  let x = Buffer.random ~seed:4 [| 1; 4; 6; 6 |] in
  let expected = Opdef.reference_eval op [ ("X", x) ] in
  let prog =
    Lower.lower_assign_to ~op
      ~layouts:(layouts_of [ ("X", trivial [| 1; 4; 6; 6 |]) ])
      ~out_layout
  in
  let outs, _ = Runtime.run_logical prog ~inputs:[ ("X", x) ] in
  check_close "pad to blocked layout" expected (List.assoc "Xp" outs)

let test_assign_to_unfolded_layout () =
  (* relu emitting an unfolded layout: producer performs the conversion *)
  let shape = [| 2; 9 |] in
  let op = Ops.relu ~name:"relu" ~inp:"X" ~out:"Y" ~shape () in
  let out_layout = Layout.unfold (trivial shape) ~dim:1 ~tile:3 ~stride:2 in
  let x = Buffer.random ~seed:5 shape in
  let expected = Opdef.reference_eval op [ ("X", x) ] in
  let prog =
    Lower.lower_assign_to ~op ~layouts:(layouts_of [ ("X", trivial shape) ])
      ~out_layout
  in
  let bufs = Runtime.alloc_bufs prog ~inputs:[ ("X", x) ] in
  let _ = Profiler.run prog ~bufs in
  let packed_expected = Layout.pack out_layout expected in
  check_close "relu to unfolded" packed_expected
    bufs.(Program.slot_index prog "Y")

(* ------------------------------------------------------------------ *)
(* Profiler behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let test_cache_basic () =
  let c = Cache.create { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 } in
  (* sequential bytes: one miss per line *)
  let misses = ref 0 in
  for a = 0 to 1023 do
    if not (Cache.access c a) then incr misses
  done;
  Alcotest.(check int) "1 miss per line" 16 !misses;
  (* re-access: all hits *)
  misses := 0;
  for a = 0 to 1023 do
    if not (Cache.access c a) then incr misses
  done;
  Alcotest.(check int) "all hits" 0 !misses

let test_cache_eviction () =
  let c = Cache.create { Cache.size_bytes = 256; assoc = 2; line_bytes = 64 } in
  (* 4 lines capacity; touch 8 distinct lines twice: second pass all miss *)
  for k = 0 to 7 do
    ignore (Cache.access c (k * 64) : bool)
  done;
  let misses = ref 0 in
  for k = 0 to 7 do
    if not (Cache.access c (k * 64)) then incr misses
  done;
  Alcotest.(check int) "thrash" 8 !misses

let test_cache_prefetch () =
  let c = Cache.create { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 } in
  ignore (Cache.access c 0 : bool);
  ignore (Cache.prefetch c 64 : bool);
  Alcotest.(check bool) "prefetched line hits" true (Cache.access c 64)

let test_vectorize_reduces_insts () =
  let op = small_gmm () in
  let layouts = layouts_of [ ("A", trivial [| 8; 12 |]); ("B", trivial [| 12; 16 |]) ] in
  let base = Schedule.default ~rank:2 ~nred:1 in
  let prog1 = Lower.lower ~op ~layouts ~out_layout:(trivial [| 8; 16 |]) ~schedule:base () in
  let prog2 =
    Lower.lower ~op ~layouts ~out_layout:(trivial [| 8; 16 |])
      ~schedule:(Schedule.vectorize base) ()
  in
  let inputs = List.map (fun (n, s) -> (n, Buffer.random s)) op.Opdef.inputs in
  let _, r1 = Runtime.run_logical prog1 ~inputs in
  let _, r2 = Runtime.run_logical prog2 ~inputs in
  Alcotest.(check bool) "vectorized fewer insts" true
    (r2.Profiler.insts < r1.Profiler.insts)

let test_parallel_reduces_latency () =
  let op = small_gmm () in
  let layouts = layouts_of [ ("A", trivial [| 8; 12 |]); ("B", trivial [| 12; 16 |]) ] in
  let base = Schedule.default ~rank:2 ~nred:1 in
  let prog1 = Lower.lower ~op ~layouts ~out_layout:(trivial [| 8; 16 |]) ~schedule:base () in
  let prog2 =
    Lower.lower ~op ~layouts ~out_layout:(trivial [| 8; 16 |])
      ~schedule:(Schedule.parallel base 1) ()
  in
  let inputs = List.map (fun (n, s) -> (n, Buffer.random s)) op.Opdef.inputs in
  let _, r1 = Runtime.run_logical prog1 ~inputs in
  let _, r2 = Runtime.run_logical prog2 ~inputs in
  Alcotest.(check bool) "parallel faster" true
    (r2.Profiler.latency_ms < r1.Profiler.latency_ms)

let test_sampling () =
  let op =
    Ops.c2d ~name:"big" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8 ~o:16 ~h:16 ~w:16
      ~kh:3 ~kw:3 ()
  in
  let layouts = layouts_of (List.map (fun (n, s) -> (n, trivial s)) op.Opdef.inputs) in
  let prog =
    Lower.lower ~op ~layouts ~out_layout:(trivial [| 1; 16; 16; 16 |])
      ~schedule:(Schedule.default ~rank:4 ~nred:3) ()
  in
  let inputs = List.map (fun (n, s) -> (n, Buffer.random s)) op.Opdef.inputs in
  let bufs = Runtime.alloc_bufs prog ~inputs in
  let full = Profiler.run prog ~bufs in
  let bufs2 = Runtime.alloc_bufs prog ~inputs in
  let sampled = Profiler.run ~max_points:5000 prog ~bufs:bufs2 in
  Alcotest.(check bool) "sampled flag" true sampled.Profiler.sampled;
  Alcotest.(check bool) "not sampled flag" false full.Profiler.sampled;
  (* scaled instruction counts should be within 30% of the full run *)
  let ratio = sampled.Profiler.insts /. full.Profiler.insts in
  Alcotest.(check bool)
    (Fmt.str "inst ratio %.3f in [0.7, 1.3]" ratio)
    true
    (ratio > 0.7 && ratio < 1.3)

let test_layout_changes_misses () =
  (* Reading a matrix along its rows vs along its columns must differ in
     L1 misses — the basic sanity check that layouts matter at all. *)
  let shape = [| 512; 512 |] in
  let op = Ops.relu ~name:"r" ~inp:"X" ~out:"Y" ~shape () in
  let row_major = trivial shape in
  let col_major = Layout.reorder (trivial shape) [| 1; 0 |] in
  let run layout =
    let prog =
      Lower.lower ~op
        ~layouts:(layouts_of [ ("X", layout) ])
        ~out_layout:(trivial shape)
        ~schedule:(Schedule.default ~rank:2 ~nred:0)
        ()
    in
    let inputs = [ ("X", Buffer.random shape) ] in
    let _, r = Runtime.run_logical ~machine:Machine.intel_cpu prog ~inputs in
    r.Profiler.l1_misses
  in
  let m_row = run row_major and m_col = run col_major in
  Alcotest.(check bool)
    (Fmt.str "row %.0f < col %.0f misses" m_row m_col)
    true (m_row < m_col)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* The shared access compiler against an independent oracle           *)
(* ------------------------------------------------------------------ *)

(* The simulator and the exec kernels both run on Loopenv, so their
   differential suites cannot see a bug in it; [Ixexpr.eval] can. *)
module Loopenv = Alt_ir.Loopenv

let oracle_vars = Array.init 4 (fun i -> Var.fresh (Printf.sprintf "v%d" i))

(* Random index trees over four variables: negative constants and
   coefficients, products of variables, and div/mod (positive constant
   divisors, as the lowering emits) and min/max for the closure path. *)
let gen_ix : Ixexpr.t QCheck2.Gen.t =
  QCheck2.Gen.(
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun k -> Ixexpr.Const k) (int_range (-6) 6);
                 map (fun i -> Ixexpr.Var oracle_vars.(i)) (int_bound 3);
               ]
           in
           if n = 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, leaf);
                 (3, map2 (fun a b -> Ixexpr.Add (a, b)) sub sub);
                 (2, map2 (fun a b -> Ixexpr.Sub (a, b)) sub sub);
                 (2, map2 (fun a b -> Ixexpr.Mul (a, b)) sub sub);
                 (1, map2 (fun a d -> Ixexpr.Div (a, Ixexpr.Const d)) sub
                       (int_range 1 5));
                 (1, map2 (fun a d -> Ixexpr.Mod (a, Ixexpr.Const d)) sub
                       (int_range 1 5));
                 (1, map2 (fun a b -> Ixexpr.Min (a, b)) sub sub);
                 (1, map2 (fun a b -> Ixexpr.Max (a, b)) sub sub);
               ]))

let gen_values = QCheck2.Gen.(array_size (return 4) (int_range (-20) 20))

(* Compile with [f], then bind every oracle variable in a fresh env. *)
let with_env compile values =
  let vm = Loopenv.create () in
  let compiled = compile vm in
  let slots = Array.map (Loopenv.var_slot vm) oracle_vars in
  let env = Loopenv.alloc_env vm in
  Array.iteri (fun i s -> env.(s) <- values.(i)) slots;
  (compiled, env)

let lookup values v =
  let rec find i =
    if Var.equal oracle_vars.(i) v then values.(i) else find (i + 1)
  in
  find 0

let access_of dims =
  let shape = Array.of_list (List.map snd dims) in
  let slot =
    { Program.sname = "A"; layout = Layout.create shape; role = Program.Input }
  in
  ([| slot |], { Program.slot = 0; idx = Array.of_list (List.map fst dims) })

let prop_offset_oracle =
  QCheck2.Test.make ~count:500
    ~name:"compiled offset == sum of Ixexpr.eval idx * stride"
    ~print:(fun (dims, values) ->
      Fmt.str "idx=[%s] shape=[%s] env=[%s]"
        (String.concat "; " (List.map (fun (e, _) -> Ixexpr.to_string e) dims))
        (String.concat "; " (List.map (fun (_, d) -> string_of_int d) dims))
        (String.concat "; " (Array.to_list (Array.map string_of_int values))))
    QCheck2.Gen.(
      pair (list_size (int_range 1 3) (pair gen_ix (int_range 1 6))) gen_values)
    (fun (dims, values) ->
      let slots, a = access_of dims in
      let off, env =
        with_env (fun vm -> Loopenv.compile_offset vm slots a) values
      in
      let strides = Shape.strides (Array.of_list (List.map snd dims)) in
      let want = ref 0 in
      Array.iteri
        (fun i e -> want := !want + (Ixexpr.eval (lookup values) e * strides.(i)))
        a.Program.idx;
      Loopenv.eval off env = !want)

(* The exec kernels read a loop variable's stride off the compiled offset;
   it must be the one [affine_stride] derives from the index expressions,
   [None] included, for every variable. *)
let prop_slot_stride =
  QCheck2.Test.make ~count:500 ~name:"slot_stride == affine_stride"
    ~print:(fun dims ->
      Fmt.str "idx=[%s]"
        (String.concat "; " (List.map (fun (e, _) -> Ixexpr.to_string e) dims)))
    QCheck2.Gen.(list_size (int_range 1 3) (pair gen_ix (int_range 1 6)))
    (fun dims ->
      let slots, a = access_of dims in
      let vm = Loopenv.create () in
      let off = Loopenv.compile_offset vm slots a in
      Array.for_all
        (fun v ->
          Loopenv.slot_stride off (Loopenv.var_slot vm v)
          = Loopenv.affine_stride slots a v)
        oracle_vars)

let gen_cond : Sexpr.cond QCheck2.Gen.t =
  QCheck2.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let cmp =
             map3
               (fun op a b -> Sexpr.Cmp (op, a, b))
               (oneofl Sexpr.[ Clt; Cle; Cgt; Cge; Ceq ])
               gen_ix gen_ix
           in
           if n = 0 then cmp
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, cmp);
                 (1, map2 (fun a b -> Sexpr.And (a, b)) sub sub);
                 (1, map2 (fun a b -> Sexpr.Or (a, b)) sub sub);
               ]))

let rec eval_cond values = function
  | Sexpr.Cmp (op, a, b) -> (
      let x = Ixexpr.eval (lookup values) a
      and y = Ixexpr.eval (lookup values) b in
      match op with
      | Sexpr.Clt -> x < y
      | Sexpr.Cle -> x <= y
      | Sexpr.Cgt -> x > y
      | Sexpr.Cge -> x >= y
      | Sexpr.Ceq -> x = y)
  | Sexpr.And (a, b) -> eval_cond values a && eval_cond values b
  | Sexpr.Or (a, b) -> eval_cond values a || eval_cond values b

let prop_cond_oracle =
  QCheck2.Test.make ~count:500 ~name:"compiled condition == direct evaluation"
    QCheck2.Gen.(pair gen_cond gen_values)
    (fun (c, values) ->
      let fc, env = with_env (fun vm -> Loopenv.compile_cond vm c) values in
      fc env = eval_cond values c)

(* A[2*i + j][k - 1] over an 8x5 layout is 10i + 5j + k - 1: a dot
   product with no closure; a floor division keeps its residue. *)
let test_affine_dot_product () =
  let i = oracle_vars.(0) and j = oracle_vars.(1) and k = oracle_vars.(2) in
  let ix = Ixexpr.(add (mul (const 2) (var i)) (var j)) in
  let kx = Ixexpr.(sub (var k) (const 1)) in
  let slots, a = access_of [ (ix, 8); (kx, 5) ] in
  let vm = Loopenv.create () in
  let off = Loopenv.compile_offset vm slots a in
  Alcotest.(check bool) "no closure residue" true (Option.is_none off.Loopenv.resid);
  Alcotest.(check int) "constant" (-1) off.Loopenv.k0;
  let terms =
    List.sort compare
      (Array.to_list
         (Array.map2 (fun s c -> (s, c)) off.Loopenv.slots off.Loopenv.coeffs))
  in
  let want =
    List.sort compare
      [ (Loopenv.var_slot vm i, 10); (Loopenv.var_slot vm j, 5);
        (Loopenv.var_slot vm k, 1) ]
  in
  Alcotest.(check (list (pair int int))) "coefficients" want terms;
  let slots, a = access_of [ (Ixexpr.(div (var i) (const 2)), 4) ] in
  let off = Loopenv.compile_offset (Loopenv.create ()) slots a in
  Alcotest.(check bool) "division keeps a residue" true
    (Option.is_some off.Loopenv.resid)

let () =
  Alcotest.run "alt_ir"
    [
      ( "gmm",
        [
          Alcotest.test_case "trivial layouts" `Quick test_gmm_trivial;
          Alcotest.test_case "transposed B (NK)" `Quick test_gmm_transposed_b;
          Alcotest.test_case "blocked NKn" `Quick test_gmm_nkn;
        ] );
      qsuite "gmm-props" [ prop_gmm_schedules_preserve_semantics ];
      ( "c2d",
        [
          Alcotest.test_case "trivial" `Quick test_c2d_trivial;
          Alcotest.test_case "NHWO" `Quick test_c2d_nhwo;
          Alcotest.test_case "ALT template (unfold)" `Quick test_c2d_alt_template;
          Alcotest.test_case "ALT template stride 2" `Quick
            test_c2d_alt_template_strided;
          Alcotest.test_case "ALT template dilated" `Quick
            test_c2d_alt_template_dilated;
        ] );
      ( "operators",
        [
          Alcotest.test_case "group conv" `Quick test_grp;
          Alcotest.test_case "depthwise conv" `Quick test_dep;
          Alcotest.test_case "conv1d" `Quick test_c1d;
          Alcotest.test_case "conv3d" `Quick test_c3d;
          Alcotest.test_case "transposed conv2d" `Quick test_t2d;
          Alcotest.test_case "transposed conv3d" `Quick test_t3d;
          Alcotest.test_case "batched matmul" `Quick test_bmm;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "conv+bias+relu fused" `Quick test_fused_bias_relu;
          Alcotest.test_case "fusion conflict detected" `Quick
            test_fusion_conflict_detected;
        ] );
      ( "conversion",
        [
          Alcotest.test_case "basic->split+pad" `Quick test_conversion_program;
          Alcotest.test_case "to unfolded" `Quick test_conversion_to_unfolded;
          Alcotest.test_case "assign to advanced layout" `Quick
            test_assign_to_advanced_layout;
          Alcotest.test_case "assign to unfolded layout" `Quick
            test_assign_to_unfolded_layout;
        ] );
      ( "loopenv",
        [
          Alcotest.test_case "affine access is a dot product" `Quick
            test_affine_dot_product;
        ] );
      qsuite "loopenv-props"
        [ prop_offset_oracle; prop_slot_stride; prop_cond_oracle ];
      ( "profiler",
        [
          Alcotest.test_case "cache basics" `Quick test_cache_basic;
          Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
          Alcotest.test_case "cache prefetch" `Quick test_cache_prefetch;
          Alcotest.test_case "vectorize reduces insts" `Quick
            test_vectorize_reduces_insts;
          Alcotest.test_case "parallel reduces latency" `Quick
            test_parallel_reduces_latency;
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "layout changes misses" `Quick
            test_layout_changes_misses;
        ] );
    ]
