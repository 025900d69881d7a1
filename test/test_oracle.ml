(* The oracle's own oracle.  [Opdef.reference_eval] compiles an operator
   into closures once per call; [naive_eval] below is the tree-walking
   interpreter it replaced, kept verbatim.  Every operator constructor is
   checked bit for bit against it at small seeded shapes, both must
   reject the same malformed calls, and the whole-graph reference of the
   four quick-zoo models is pinned to the digest the tree walk produced,
   so the suite need not pay the tree walk's time on whole models. *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Sexpr = Alt_ir.Sexpr
module Graph = Alt_graph.Graph
module Ops = Alt_graph.Ops
module Zoo = Alt_models.Zoo

(* ------------------------------------------------------------------ *)
(* The tree-walking interpreter, verbatim                             *)
(* ------------------------------------------------------------------ *)

(* Naive interpreter over logical row-major buffers. *)
let naive_eval (t : Opdef.t) (inputs : (string * float array) list) :
    float array =
  let open Opdef in
  List.iter
    (fun (n, s) ->
      match List.assoc_opt n inputs with
      | Some a when Array.length a = Shape.num_elements s -> ()
      | Some a ->
          invalid_arg
            (Fmt.str "reference_eval %s: input %s has %d elements, want %d"
               t.name n (Array.length a) (Shape.num_elements s))
      | None -> invalid_arg (Fmt.str "reference_eval %s: missing input %s" t.name n))
    t.inputs;
  let out = Array.make (Shape.num_elements t.out_shape) 0.0 in
  let env_tbl = Hashtbl.create 16 in
  let env v =
    match Hashtbl.find_opt env_tbl (Var.id v) with
    | Some x -> x
    | None -> invalid_arg (Fmt.str "reference_eval: unbound var %s" (Var.name v))
  in
  let lookup name idx env =
    let shape = input_shape t name in
    let data = List.assoc name inputs in
    let concrete = Array.map (Ixexpr.eval env) idx in
    data.(Shape.offset_of_index shape concrete)
  in
  let rank = Shape.rank t.out_shape in
  let sp_idx = Array.make rank 0 in
  let reduce = Array.of_list t.reduce in
  let nred = Array.length reduce in
  let rec spatial_loop d =
    if d = rank then begin
      let acc = ref (if t.combiner = Assign then 0.0 else t.init) in
      let rec reduce_loop j =
        if j = nred then begin
          let v = Sexpr.eval ~lookup env t.body in
          match t.combiner with
          | Assign -> acc := v
          | Sum -> acc := !acc +. v
          | Max -> acc := Float.max !acc v
        end
        else
          let rv, ext = reduce.(j) in
          for x = 0 to ext - 1 do
            Hashtbl.replace env_tbl (Var.id rv) x;
            reduce_loop (j + 1)
          done
      in
      reduce_loop 0;
      out.(Shape.offset_of_index t.out_shape sp_idx) <- !acc
    end
    else
      for x = 0 to t.out_shape.(d) - 1 do
        sp_idx.(d) <- x;
        Hashtbl.replace env_tbl (Var.id t.spatial.(d)) x;
        spatial_loop (d + 1)
      done
  in
  spatial_loop 0;
  out

(* ------------------------------------------------------------------ *)
(* Differential: every operator constructor, bit for bit              *)
(* ------------------------------------------------------------------ *)

let feeds ~seed (op : Opdef.t) =
  List.mapi (fun i (n, s) -> (n, Buffer.random ~seed:(seed + i) s)) op.Opdef.inputs

let bits a = Array.map Int64.bits_of_float a

let check_identical (op : Opdef.t) =
  let ins = feeds ~seed:11 op in
  let want = naive_eval op ins and got = Opdef.reference_eval op ins in
  Alcotest.(check (array int64)) op.Opdef.name (bits want) (bits got)

let case name ops =
  Alcotest.test_case name `Quick (fun () -> List.iter check_identical ops)

let conv_cases =
  [
    case "c2d"
      [
        Ops.c2d ~name:"c2d" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:3 ~o:4 ~h:5
          ~w:4 ~kh:3 ~kw:3 ();
        Ops.c2d ~name:"c2d_s2" ~inp:"x" ~ker:"k" ~out:"y" ~n:2 ~i:2 ~o:3 ~h:3
          ~w:3 ~kh:3 ~kw:2 ~stride:2 ();
        Ops.c2d ~name:"c2d_sub" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:2 ~h:3
          ~w:3 ~kh:1 ~kw:1 ~stride:2 ~in_h:6 ~in_w:6 ();
      ];
    case "dil"
      [
        Ops.dil ~name:"dil" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:3 ~h:4
          ~w:3 ~kh:3 ~kw:3 ();
        Ops.dil ~name:"dil3" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:2 ~h:3
          ~w:3 ~kh:2 ~kw:3 ~dilation:3 ~stride:2 ();
      ];
    case "grp"
      [
        Ops.grp ~name:"grp" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:4 ~o:6 ~h:4
          ~w:3 ~kh:3 ~kw:3 ~groups:2 ();
        Ops.grp ~name:"grp_s2" ~inp:"x" ~ker:"k" ~out:"y" ~n:2 ~i:6 ~o:3 ~h:2
          ~w:3 ~kh:2 ~kw:2 ~groups:3 ~stride:2 ();
      ];
    case "dep"
      [
        Ops.dep ~name:"dep" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~c:3 ~h:4 ~w:5
          ~kh:3 ~kw:3 ();
        Ops.dep ~name:"dep_s2" ~inp:"x" ~ker:"k" ~out:"y" ~n:2 ~c:2 ~h:3 ~w:3
          ~kh:3 ~kw:3 ~stride:2 ~in_h:8 ~in_w:7 ();
      ];
    case "t2d"
      [
        Ops.t2d ~name:"t2d" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:3 ~h:4
          ~w:5 ~kh:3 ~kw:2 ();
      ];
    case "c1d"
      [
        Ops.c1d ~name:"c1d" ~inp:"x" ~ker:"k" ~out:"y" ~n:2 ~i:3 ~o:4 ~w:6
          ~kw:3 ();
        Ops.c1d ~name:"c1d_s2" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:2 ~w:4
          ~kw:3 ~stride:2 ();
      ];
    case "c3d"
      [
        Ops.c3d ~name:"c3d" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:3 ~d:3
          ~h:3 ~w:4 ~kd:2 ~kh:3 ~kw:3 ();
        Ops.c3d ~name:"c3d_s2" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:2 ~d:2
          ~h:2 ~w:2 ~kd:1 ~kh:1 ~kw:1 ~stride:2 ~in_d:4 ~in_h:4 ~in_w:4 ();
      ];
    case "t3d"
      [
        Ops.t3d ~name:"t3d" ~inp:"x" ~ker:"k" ~out:"y" ~n:1 ~i:2 ~o:2 ~d:3
          ~h:3 ~w:4 ~kd:2 ~kh:2 ~kw:3 ();
      ];
    case "gmm"
      [
        Ops.gmm ~name:"gmm" ~a:"a" ~b:"b" ~out:"c" ~m:5 ~k:7 ~n:6 ();
        Ops.gmm ~name:"gmm_1" ~a:"a" ~b:"b" ~out:"c" ~m:1 ~k:1 ~n:3 ();
      ];
    case "bmm"
      [ Ops.bmm ~name:"bmm" ~a:"a" ~b:"b" ~out:"c" ~batch:3 ~m:4 ~k:5 ~n:2 () ];
  ]

let elementwise_cases =
  let shape = [| 2; 3; 4 |] in
  [
    case "relu" [ Ops.relu ~name:"relu" ~inp:"x" ~out:"y" ~shape () ];
    case "gelu" [ Ops.gelu ~name:"gelu" ~inp:"x" ~out:"y" ~shape () ];
    case "add" [ Ops.add ~name:"add" ~a:"a" ~b:"b" ~out:"y" ~shape () ];
    case "bias_add"
      [
        Ops.bias_add ~name:"bias_add" ~inp:"x" ~bias:"b" ~out:"y" ~shape
          ~dim:1 ();
        Ops.bias_add ~name:"bias_add_last" ~inp:"x" ~bias:"b" ~out:"y" ~shape
          ~dim:2 ();
      ];
    case "scale"
      [ Ops.scale ~name:"scale" ~inp:"x" ~out:"y" ~shape ~factor:0.125 () ];
  ]

let pad_pool_cases =
  [
    case "pad2d"
      [
        Ops.pad2d ~name:"pad2d" ~inp:"x" ~out:"y" ~n:1 ~c:2 ~h:3 ~w:4 ~pad:1 ();
        Ops.pad2d ~name:"pad2d_hi" ~inp:"x" ~out:"y" ~n:2 ~c:1 ~h:4 ~w:3
          ~pad:0 ~pad_hi:2 ();
      ];
    case "pad3d"
      [
        Ops.pad3d ~name:"pad3d" ~inp:"x" ~out:"y" ~n:1 ~c:2 ~d:2 ~h:3 ~w:2
          ~pad:1 ();
        Ops.pad3d ~name:"pad3d_hi" ~inp:"x" ~out:"y" ~n:1 ~c:1 ~d:3 ~h:2 ~w:2
          ~pad:1 ~pad_hi:0 ();
      ];
    case "maxpool2d"
      [
        Ops.maxpool2d ~name:"maxpool2d" ~inp:"x" ~out:"y" ~n:1 ~c:2 ~h:3 ~w:3
          ~k:3 ();
        Ops.maxpool2d ~name:"maxpool2d_s1" ~inp:"x" ~out:"y" ~n:2 ~c:1 ~h:4
          ~w:3 ~k:2 ~stride:1 ();
      ];
    case "global_avgpool"
      [
        Ops.global_avgpool ~name:"global_avgpool" ~inp:"x" ~out:"y" ~n:2 ~c:3
          ~h:4 ~w:5 ();
      ];
    case "global_avgpool3d"
      [
        Ops.global_avgpool3d ~name:"global_avgpool3d" ~inp:"x" ~out:"y" ~n:1
          ~c:3 ~d:2 ~h:3 ~w:4 ();
      ];
  ]

let row_cases =
  let lead = [| 2; 3 |] and n = 5 in
  [
    case "rowmax" [ Ops.rowmax ~name:"rowmax" ~inp:"x" ~out:"y" ~lead ~n () ];
    case "rowsum"
      [
        Ops.rowsum ~name:"rowsum" ~inp:"x" ~out:"y" ~lead ~n ();
        Ops.rowsum ~name:"rowsum_mean" ~inp:"x" ~out:"y" ~lead ~n
          ~scale:(1.0 /. float_of_int n) ();
      ];
    case "rowvar"
      [ Ops.rowvar ~name:"rowvar" ~inp:"x" ~mean:"m" ~out:"y" ~lead ~n () ];
    case "exp_sub"
      [ Ops.exp_sub ~name:"exp_sub" ~inp:"x" ~row:"r" ~out:"y" ~lead ~n () ];
    case "div_rows"
      [ Ops.div_rows ~name:"div_rows" ~inp:"x" ~row:"r" ~out:"y" ~lead ~n () ];
    case "normalize_rows"
      [
        Ops.normalize_rows ~name:"normalize_rows" ~inp:"x" ~mean:"m" ~var:"v"
          ~out:"y" ~lead ~n ();
      ];
  ]

let head_cases =
  [
    case "split_heads"
      [ Ops.split_heads ~name:"split_heads" ~inp:"x" ~out:"y" ~s:3 ~h:8 ~heads:2 () ];
    case "split_heads_t"
      [
        Ops.split_heads_t ~name:"split_heads_t" ~inp:"x" ~out:"y" ~s:3 ~h:8
          ~heads:4 ();
      ];
    case "merge_heads"
      [ Ops.merge_heads ~name:"merge_heads" ~inp:"x" ~out:"y" ~s:3 ~h:8 ~heads:2 () ];
  ]

(* A hand-built operator reaching every index, condition and body
   constructor the operator library leaves out: floor division and modulo
   of negative values, min/max, every comparison, [Or], every unary and
   binary float operator, nested selects — under each combiner. *)
let every_constructor combiner =
  let i = Var.fresh "i" and j = Var.fresh "j" and r = Var.fresh "r" in
  (* an elementwise operator reads the last reduction point's column *)
  let reduce = if combiner = Opdef.Assign then [] else [ (r, 3) ] in
  let open Ixexpr in
  let vi = var i and vj = var j in
  let vr = if reduce = [] then Const 2 else var r in
  (* a[(2i + r) / 2 + (i - 3) / 2 + 2][min(j, 3)]: rows 0..6, cols 0..3 *)
  let a =
    Sexpr.load "a"
      [|
        Add (Div (Add (Mul (vi, Const 2), vr), Const 2),
             Add (Div (Sub (vi, Const 3), Const 2), Const 2));
        Min (vj, Const 3);
      |]
  in
  (* b[3 - (i + r) mod 4][max(j - r, 0) + (j - 4) mod 3]: rows 0..3,
     cols 0..5 *)
  let b =
    Sexpr.load "b"
      [|
        Sub (Const 3, Mod (Add (vi, vr), Const 4));
        Add (Max (Sub (vj, vr), Const 0), Mod (Sub (vj, Const 4), Const 3));
      |]
  in
  let cmp op x y = Sexpr.Cmp (op, x, y) in
  let body =
    Sexpr.(
      select
        (Or
           ( And (cmp Clt vi vj, cmp Cge vr (Const 1)),
             cmp Ceq (Mod (Sub (vi, vr), Const 3)) (Const 0) ))
        (Bin (Bmax, Un (Utanh, a), Un (Uneg, b)))
        (select
           (cmp Cle vj (Const 2))
           (Bin (Bmin, Un (Uexp, a), Un (Usqrt, relu b)))
           (select
              (cmp Cgt vj (Const 3))
              (a /. Un (Urecip, b))
              (fconst 0.5 -. (a *. b)))))
  in
  Opdef.make ~name:"every_constructor"
    ~inputs:[ ("a", [| 7; 4 |]); ("b", [| 4; 6 |]) ]
    ~out_name:"y" ~out_shape:[| 4; 5 |] ~spatial:[| i; j |] ~reduce ~combiner
    ~init:(if combiner = Opdef.Max then Float.neg_infinity else 0.25)
    ~body ()

(* ------------------------------------------------------------------ *)
(* Both interpreters reject the same malformed calls                  *)
(* ------------------------------------------------------------------ *)

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument" what
  | exception Invalid_argument _ -> ()

let both_reject what op ins =
  rejects ("naive: " ^ what) (fun () -> naive_eval op ins);
  rejects ("compiled: " ^ what) (fun () -> Opdef.reference_eval op ins)

(* An elementwise op over i in [0, 3) that reads x at [idx i]. *)
let reader shape idx =
  let i = Var.fresh "i" in
  Opdef.make ~name:"reader" ~inputs:[ ("x", shape) ] ~out_name:"y"
    ~out_shape:[| 3 |] ~spatial:[| i |] ~reduce:[] ~combiner:Opdef.Assign
    ~init:0.0
    ~body:(Sexpr.load "x" (idx (Ixexpr.Var i)))
    ()

let test_out_of_range () =
  let open Ixexpr in
  List.iter
    (fun (what, shape, idx) ->
      let op = reader shape idx in
      both_reject what op (feeds ~seed:3 op))
    [
      ("read past the end", [| 3 |], fun i -> [| Add (i, Const 1) |]);
      ("read before the start", [| 3; 2 |], fun i -> [| i; Sub (i, Const 1) |]);
      (* x[0][i + 1] leaves its row at i = 1 but not the buffer *)
      ("read past a row's end", [| 3; 2 |], fun i -> [| Const 0; Add (i, Const 1) |]);
      ("too few indices", [| 3; 2 |], fun i -> [| i |]);
      ("too many indices", [| 3; 2 |], fun i -> [| i; Const 0; Const 0 |]);
      ("unbound iterator", [| 3; 2 |], fun _ -> [| Var (Var.fresh "z"); Const 0 |]);
    ]

let test_bad_inputs () =
  let op = Ops.gmm ~name:"gmm" ~a:"a" ~b:"b" ~out:"c" ~m:2 ~k:3 ~n:2 () in
  let ins = feeds ~seed:5 op in
  both_reject "missing input" op [ List.hd ins ];
  both_reject "no inputs" op [];
  both_reject "wrong-size input"
    op
    (List.map (fun (n, a) -> if n = "b" then (n, Array.sub a 0 5) else (n, a)) ins)

(* ------------------------------------------------------------------ *)
(* Whole models: pinned to the tree walk's digest                     *)
(* ------------------------------------------------------------------ *)

(* The quick-scale zoo of the benchmarks, with the tree walk's digest of
   [Graph.reference_execute] at feeds seeded [100 * (position + 1)]. *)
let quick_zoo () =
  [
    ("r18", (Zoo.resnet18 ~size:8 ~base:4 ()).Zoo.graph,
     "b4af5204da98807fdf68045c42685372");
    ("mv2", (Zoo.mobilenet_v2 ~size:8 ()).Zoo.graph,
     "c47befc2d506cbd18e268cb39cdd5de3");
    ("bt", (Zoo.bert_tiny ()).Zoo.graph, "b7cec00911b4fff120e1cf91fb1908b2");
    ("r3d", (Zoo.resnet3d_18 ~size:8 ~depth:4 ~base:4 ()).Zoo.graph,
     "3fbafdd2fc10c1ad308c6c9346e836ba");
  ]

(* Every tensor's name and float bits, in name order. *)
let digest env =
  let b = Stdlib.Buffer.create 4096 in
  List.iter
    (fun (n, a) ->
      Stdlib.Buffer.add_string b n;
      Array.iter (fun x -> Stdlib.Buffer.add_int64_le b (Int64.bits_of_float x)) a)
    (List.sort (fun (x, _) (y, _) -> compare x y) env);
  Digest.to_hex (Digest.string (Stdlib.Buffer.contents b))

let test_zoo_digest () =
  List.iteri
    (fun pos (key, g, want) ->
      let feeds = Graph.random_feeds ~seed:(100 * (pos + 1)) g in
      Alcotest.(check string) key want (digest (Graph.reference_execute g ~feeds)))
    (quick_zoo ())

let () =
  Alcotest.run "alt_oracle"
    [
      ("oracle-conv", conv_cases);
      ("oracle-elementwise", elementwise_cases);
      ("oracle-pad-pool", pad_pool_cases);
      ("oracle-rows", row_cases);
      ("oracle-heads", head_cases);
      ( "oracle-constructors",
        [
          case "every constructor, Sum" [ every_constructor Opdef.Sum ];
          case "every constructor, Max" [ every_constructor Opdef.Max ];
          case "every constructor, Assign" [ every_constructor Opdef.Assign ];
        ] );
      ( "oracle-errors",
        [
          Alcotest.test_case "out-of-range reads" `Quick test_out_of_range;
          Alcotest.test_case "missing or wrong-size inputs" `Quick
            test_bad_inputs;
        ] );
      ( "oracle-zoo",
        [ Alcotest.test_case "quick zoo digests pinned" `Quick test_zoo_digest ] );
    ]
