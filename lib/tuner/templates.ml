(* Layout tuning templates (paper Section 5.1).

   A template prunes the layout space of a complex operator to a handful of
   tunable split parameters; the reorder is fixed by the analysis in the
   paper (channel innermost for data reuse + SIMD, tiled dims contiguous
   for prefetch-friendly storage), and the input tensor's unfolded
   dimensions are tied to the output tiling instead of being tuned.

   For C2D the knobs are (h_t, w_t, o_t, i_t, i'_t, o'_t) — O(10^6) points
   instead of O(10^19); for GMM (m_t, k_t, n_t).  Actions are continuous in
   (0,1) and mapped to divisors via F = R(D * a) (Eq. (2)), so the same
   agent drives every shape. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Opdef = Alt_ir.Opdef
module Propagate = Alt_graph.Propagate

type part = Whole of int | Outer of int | Mid of int | Inner of int

type dim_op = Dsplit of int list (* inner factors, outermost derived *)
            | Dunfold of int * int (* tile, stride *)

(* Build a layout by tiling/unfolding logical dims and permuting the parts.
   Every dim in [ops] contributes (#factors) or 2 physical dims (extent-1
   parts are kept so placement stays uniform). *)
let make (shape : Shape.t) (ops : (int * dim_op) list) (order : part list) :
    Layout.t =
  let rank = Shape.rank shape in
  (* apply transforms in descending dim order so indices stay stable *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) ops in
  let layout =
    List.fold_left
      (fun l (d, op) ->
        match op with
        | Dsplit inner ->
            let e = shape.(d) in
            let prod = List.fold_left ( * ) 1 inner in
            if e mod prod <> 0 then
              invalid_arg
                (Fmt.str "Templates.make: factors %d do not divide %d" prod e);
            Layout.split l ~dim:d ~factors:((e / prod) :: inner)
        | Dunfold (tile, stride) -> Layout.unfold l ~dim:d ~tile ~stride)
      (Layout.create shape) sorted
  in
  (* physical position of each logical dim's parts before the reorder *)
  let parts_of d =
    match List.assoc_opt d ops with
    | None -> 1
    | Some (Dsplit fs) -> 1 + List.length fs
    | Some (Dunfold _) -> 2
  in
  let base = Array.make rank 0 in
  let off = ref 0 in
  for d = 0 to rank - 1 do
    base.(d) <- !off;
    off := !off + parts_of d
  done;
  let pos = function
    | Whole d | Outer d -> base.(d)
    | Mid d -> base.(d) + 1
    | Inner d -> base.(d) + parts_of d - 1
  in
  let perm = Array.of_list (List.map pos order) in
  if Array.length perm <> !off then
    invalid_arg "Templates.make: order does not cover all parts";
  Layout.reorder layout perm

(* ------------------------------------------------------------------ *)
(* Templates                                                          *)
(* ------------------------------------------------------------------ *)

type knob = { kname : string; extent : int }

type t = {
  op : Opdef.t;
  knobs : knob array;
  decode : float array -> Propagate.choice;
}

let factor_of extent a =
  Shape.round_to_divisor extent
    (max 1 (int_of_float (Float.round (a *. float_of_int extent))))

exception Unsupported

let conv_template ?(levels = 1) (op : Opdef.t) : t =
  match op.Opdef.kind with
  | Opdef.Conv c ->
      let out_shape = op.Opdef.out_shape in
      let inp_shape = Opdef.input_shape op c.inp in
      let ker_shape = Opdef.input_shape op c.ker in
      let sp_dims = List.map (fun (s : Opdef.conv_spatial) -> s.Opdef.out_dim) c.spatials in
      let batch_dims =
        List.filter
          (fun d -> d <> c.out_channel_dim && not (List.mem d sp_dims))
          (List.init (Shape.rank out_shape) Fun.id)
      in
      let knobs =
        Array.of_list
          (List.concat
             [
               List.map
                 (fun (s : Opdef.conv_spatial) ->
                   { kname = "st"; extent = out_shape.(s.Opdef.out_dim) })
                 c.spatials;
               [ { kname = "ot"; extent = out_shape.(c.out_channel_dim) } ];
               (if levels >= 2 then
                  List.map
                    (fun (s : Opdef.conv_spatial) ->
                      { kname = "st2"; extent = out_shape.(s.Opdef.out_dim) })
                    c.spatials
                  @ [ { kname = "ot2"; extent = out_shape.(c.out_channel_dim) } ]
                else []);
               [ { kname = "it"; extent = inp_shape.(c.inp_channel_dim) } ];
               (match c.ker_in_dim with
               | Some kd -> [ { kname = "it'"; extent = ker_shape.(kd) } ]
               | None -> []);
               [ { kname = "ot'"; extent = ker_shape.(c.ker_out_dim) } ];
             ])
      in
      let decode (a : float array) : Propagate.choice =
        if Array.length a <> Array.length knobs then
          invalid_arg "conv_template.decode: action length";
        let k = ref 0 in
        let next extent =
          let f = factor_of extent a.(!k) in
          incr k;
          f
        in
        let st = List.map (fun (s : Opdef.conv_spatial) -> next out_shape.(s.Opdef.out_dim)) c.spatials in
        let ot = next out_shape.(c.out_channel_dim) in
        (* second level factors must divide extent/first_level *)
        let st2, ot2 =
          if levels >= 2 then
            let st2 =
              List.map2
                (fun (s : Opdef.conv_spatial) f1 ->
                  factor_of (out_shape.(s.Opdef.out_dim) / f1) a.(!k) |> fun f ->
                  incr k;
                  f)
                c.spatials st
            in
            let ot2 = factor_of (out_shape.(c.out_channel_dim) / ot) a.(!k) in
            incr k;
            (st2, Some ot2)
          else (List.map (fun _ -> 1) c.spatials, None)
        in
        let it = next inp_shape.(c.inp_channel_dim) in
        let it' =
          match c.ker_in_dim with Some kd -> Some (next ker_shape.(kd)) | None -> None
        in
        let ot' = next ker_shape.(c.ker_out_dim) in
        (* --- output layout --- *)
        let two_level = levels >= 2 in
        (* factors are [mid; inner] for two-level, [inner] for one-level;
           the outermost part is derived by [make] *)
        let out_ops =
          List.map2
            (fun (s : Opdef.conv_spatial) (f1, f2) ->
              ( s.Opdef.out_dim,
                Dsplit (if two_level then [ f2; f1 ] else [ f1 ]) ))
            c.spatials
            (List.combine st st2)
          @ [
              ( c.out_channel_dim,
                Dsplit
                  (match ot2 with
                  | Some o2 when two_level -> [ o2; ot ]
                  | _ -> [ ot ]) );
            ]
        in
        let out_order =
          List.map (fun d -> Whole d) batch_dims
          @ List.map (fun d -> Outer d) sp_dims
          @ [ Outer c.out_channel_dim ]
          @ (if two_level then
               List.map (fun d -> Mid d) sp_dims @ [ Mid c.out_channel_dim ]
             else [])
          @ List.map (fun d -> Inner d) sp_dims
          @ [ Inner c.out_channel_dim ]
        in
        let out_layout = make out_shape out_ops out_order in
        (* --- input layout: unfold tied to the *total* spatial tile --- *)
        let inp_sp_dims = List.map (fun (s : Opdef.conv_spatial) -> s.Opdef.inp_dim) c.spatials in
        let inp_batch_dims =
          List.filter
            (fun d -> d <> c.inp_channel_dim && not (List.mem d inp_sp_dims))
            (List.init (Shape.rank inp_shape) Fun.id)
        in
        let inp_ops =
          List.map2
            (fun (s : Opdef.conv_spatial) (f1, f2) ->
              let tile_sp = if two_level then f1 * f2 else f1 in
              let v = s.Opdef.stride and dk = s.Opdef.dilation and k = s.Opdef.kernel in
              let tile = (v * tile_sp) + (dk * (k - 1)) + 1 - v in
              (s.Opdef.inp_dim, Dunfold (tile, v * tile_sp)))
            c.spatials
            (List.combine st st2)
          @ [ (c.inp_channel_dim, Dsplit [ it ]) ]
        in
        let inp_order =
          List.map (fun d -> Whole d) inp_batch_dims
          @ List.map (fun d -> Outer d) inp_sp_dims
          @ [ Outer c.inp_channel_dim ]
          @ List.map (fun d -> Inner d) inp_sp_dims
          @ [ Inner c.inp_channel_dim ]
        in
        let inp_layout = make inp_shape inp_ops inp_order in
        (* --- weight layout --- *)
        let ker_ops =
          [ (c.ker_out_dim, Dsplit [ ot' ]) ]
          @ (match (c.ker_in_dim, it') with
            | Some kd, Some f -> [ (kd, Dsplit [ f ]) ]
            | _ -> [])
        in
        let tiled_ker_dims = List.map fst ker_ops in
        let ker_whole =
          List.filter
            (fun d -> not (List.mem d tiled_ker_dims))
            (List.init (Shape.rank ker_shape) Fun.id)
        in
        let ker_order =
          [ Outer c.ker_out_dim ]
          @ (match c.ker_in_dim with Some kd -> [ Outer kd ] | None -> [])
          @ List.map (fun d -> Whole d) ker_whole
          @ (match c.ker_in_dim with Some kd -> [ Inner kd ] | None -> [])
          @ [ Inner c.ker_out_dim ]
        in
        let ker_layout = make ker_shape ker_ops ker_order in
        {
          Propagate.out_layout;
          in_layouts = [ (c.inp, inp_layout); (c.ker, ker_layout) ];
        }
      in
      { op; knobs; decode }
  | Opdef.Simple | Opdef.Matmul _ -> raise Unsupported

let matmul_template ?levels:(_ = 1) (op : Opdef.t) : t =
  match op.Opdef.kind with
  | Opdef.Matmul mm ->
      let out_shape = op.Opdef.out_shape in
      let a_shape = Opdef.input_shape op mm.a in
      let b_shape = Opdef.input_shape op mm.b in
      let boff = if mm.batched then 1 else 0 in
      let m = out_shape.(boff) and n = out_shape.(boff + 1) in
      let k = a_shape.(boff + 1) in
      let knobs =
        [|
          { kname = "mt"; extent = m };
          { kname = "kt"; extent = k };
          { kname = "nt"; extent = n };
        |]
      in
      let decode (a : float array) : Propagate.choice =
        let mt = factor_of m a.(0)
        and kt = factor_of k a.(1)
        and nt = factor_of n a.(2) in
        let batch d = if mm.batched then [ Whole 0 ] else [] |> fun l -> ignore d; l in
        let block2 shape d0 f0 d1 f1 =
          make shape
            [ (d0, Dsplit [ f0 ]); (d1, Dsplit [ f1 ]) ]
            (batch 0 @ [ Outer d0; Outer d1; Inner d0; Inner d1 ])
        in
        {
          Propagate.out_layout = block2 out_shape boff mt (boff + 1) nt;
          in_layouts =
            [
              (mm.a, block2 a_shape boff mt (boff + 1) kt);
              (mm.b, block2 b_shape boff kt (boff + 1) nt);
            ];
        }
      in
      { op; knobs; decode }
  | Opdef.Simple | Opdef.Conv _ -> raise Unsupported

let for_op ?(levels = 1) (op : Opdef.t) : t option =
  match op.Opdef.kind with
  | Opdef.Conv _ -> Some (conv_template ~levels op)
  | Opdef.Matmul _ -> Some (matmul_template ~levels op)
  | Opdef.Simple -> None

(* ------------------------------------------------------------------ *)
(* Fixed layout choices for baselines and motivation experiments       *)
(* ------------------------------------------------------------------ *)

let trivial_choice (op : Opdef.t) : Propagate.choice =
  {
    Propagate.out_layout = Layout.create op.Opdef.out_shape;
    in_layouts =
      List.map (fun (n, s) -> (n, Layout.create s)) op.Opdef.inputs;
  }

(* Move a dim of a trivial layout to the last position. *)
let dim_last shape d =
  let r = Shape.rank shape in
  let perm = Array.of_list (List.filter (fun i -> i <> d) (List.init r Fun.id) @ [ d ]) in
  Layout.reorder (Layout.create shape) perm

(* Channels-last storage for every tensor of a convolution (the paper's
   NHWO / NDHWO / NWO family; weights become HWIO-style). *)
let channels_last_choice (op : Opdef.t) : Propagate.choice =
  match op.Opdef.kind with
  | Opdef.Conv c ->
      let ker_shape = Opdef.input_shape op c.ker in
      let ker =
        match c.ker_in_dim with
        | Some kd ->
            let r = Shape.rank ker_shape in
            let rest =
              List.filter
                (fun i -> i <> c.ker_out_dim && i <> kd)
                (List.init r Fun.id)
            in
            let perm = Array.of_list (rest @ [ kd; c.ker_out_dim ]) in
            Layout.reorder (Layout.create ker_shape) perm
        | None -> dim_last ker_shape c.ker_out_dim
      in
      {
        Propagate.out_layout = dim_last op.Opdef.out_shape c.out_channel_dim;
        in_layouts =
          [
            (c.inp, dim_last (Opdef.input_shape op c.inp) c.inp_channel_dim);
            (c.ker, ker);
          ];
      }
  | Opdef.Matmul _ | Opdef.Simple -> trivial_choice op

(* HWON: spatial dims first, then channel, then batch (the DSP layout of
   Fig. 1). *)
let hwon_choice (op : Opdef.t) : Propagate.choice =
  match op.Opdef.kind with
  | Opdef.Conv c ->
      let out_shape = op.Opdef.out_shape in
      let r = Shape.rank out_shape in
      let sp = List.map (fun (s : Opdef.conv_spatial) -> s.Opdef.out_dim) c.spatials in
      let batch =
        List.filter
          (fun d -> d <> c.out_channel_dim && not (List.mem d sp))
          (List.init r Fun.id)
      in
      let perm = Array.of_list (sp @ [ c.out_channel_dim ] @ batch) in
      let inp_shape = Opdef.input_shape op c.inp in
      let isp = List.map (fun (s : Opdef.conv_spatial) -> s.Opdef.inp_dim) c.spatials in
      let ibatch =
        List.filter
          (fun d -> d <> c.inp_channel_dim && not (List.mem d isp))
          (List.init (Shape.rank inp_shape) Fun.id)
      in
      let iperm = Array.of_list (isp @ [ c.inp_channel_dim ] @ ibatch) in
      {
        Propagate.out_layout = Layout.reorder (Layout.create out_shape) perm;
        in_layouts =
          [
            (c.inp, Layout.reorder (Layout.create inp_shape) iperm);
            (c.ker, Layout.create (Opdef.input_shape op c.ker));
          ];
      }
  | Opdef.Matmul _ | Opdef.Simple -> trivial_choice op

(* NCHWc-style blocked layout with a fixed block (NeoCPU / vendor
   blocking): channels of every tensor are split by [block] with the block
   innermost; no unfolding, so a uniform blocked pipeline needs no
   conversion operators — exactly how NeoCPU/Ansor deploy it. *)
let blocked_choice (op : Opdef.t) ~(block : int) : Propagate.choice =
  let chan_blocked shape dim rest_order =
    let b = Shape.round_to_divisor shape.(dim) (min block shape.(dim)) in
    make shape [ (dim, Dsplit [ b ]) ] rest_order
  in
  match op.Opdef.kind with
  | Opdef.Conv c ->
      let out_shape = op.Opdef.out_shape in
      let inp_shape = Opdef.input_shape op c.inp in
      let ker_shape = Opdef.input_shape op c.ker in
      let order shape dim =
        List.map
          (fun d -> if d = dim then Outer d else Whole d)
          (List.init (Shape.rank shape) Fun.id)
        @ [ Inner dim ]
      in
      let out_layout =
        chan_blocked out_shape c.out_channel_dim (order out_shape c.out_channel_dim)
      in
      let inp_layout =
        chan_blocked inp_shape c.inp_channel_dim (order inp_shape c.inp_channel_dim)
      in
      let ker_layout =
        match c.ker_in_dim with
        | Some kd ->
            (* OIHWio-style: block both channel dims of the weight *)
            let bo = Shape.round_to_divisor ker_shape.(c.ker_out_dim)
                       (min block ker_shape.(c.ker_out_dim)) in
            let bi = Shape.round_to_divisor ker_shape.(kd)
                       (min block ker_shape.(kd)) in
            let whole =
              List.filter
                (fun d -> d <> c.ker_out_dim && d <> kd)
                (List.init (Shape.rank ker_shape) Fun.id)
            in
            make ker_shape
              [ (c.ker_out_dim, Dsplit [ bo ]); (kd, Dsplit [ bi ]) ]
              ([ Outer c.ker_out_dim; Outer kd ]
              @ List.map (fun d -> Whole d) whole
              @ [ Inner kd; Inner c.ker_out_dim ])
        | None ->
            chan_blocked ker_shape c.ker_out_dim (order ker_shape c.ker_out_dim)
      in
      {
        Propagate.out_layout;
        in_layouts = [ (c.inp, inp_layout); (c.ker, ker_layout) ];
      }
  | Opdef.Matmul _ -> (
      match for_op op with
      | Some tpl ->
          let a =
            Array.map
              (fun kn ->
                Float.min 0.95
                  (float_of_int (min block kn.extent) /. float_of_int kn.extent))
              tpl.knobs
          in
          tpl.decode a
      | None -> trivial_choice op)
  | Opdef.Simple -> trivial_choice op

(* GMM fixed layouts of Fig. 1: KN (default), NK (B transposed), NKn
   (blocked with m=n=16). *)
let gmm_kn = trivial_choice

let gmm_nk (op : Opdef.t) : Propagate.choice =
  match op.Opdef.kind with
  | Opdef.Matmul mm when not mm.batched ->
      let b_shape = Opdef.input_shape op mm.b in
      {
        Propagate.out_layout = Layout.create op.Opdef.out_shape;
        in_layouts =
          [
            (mm.a, Layout.create (Opdef.input_shape op mm.a));
            (mm.b, Layout.reorder (Layout.create b_shape) [| 1; 0 |]);
          ];
      }
  | _ -> trivial_choice op

let gmm_nkn ?(block = 16) (op : Opdef.t) : Propagate.choice =
  blocked_choice op ~block

(* Deterministic affine "layout zoo" for cross-device rank validation
   (DESIGN.md 12): every choice keeps the loop-nest depth of the default
   schedule — the layouts differ only by [reorder] and [pad], never
   [split]/[unfold], which would change the compiled loop structure (and
   force the exec backend's generic fallback).  Candidates therefore
   differ in exactly one observable: memory access order.  Any two
   devices that price strides sanely must rank the zoo similarly. *)
let layout_zoo (op : Opdef.t) : Propagate.choice list =
  let pad_last l =
    let r = Shape.rank (Layout.physical_shape l) in
    Layout.pad l ~dim:(r - 1) ~lo:0 ~hi:1
  in
  (* swap the two innermost dims: KN <-> NK of Fig. 1 / row- vs
     column-major streaming *)
  let swap sh =
    let n = Shape.rank sh in
    let p = Array.init n Fun.id in
    p.(n - 2) <- n - 1;
    p.(n - 1) <- n - 2;
    Layout.reorder (Layout.create sh) p
  in
  match op.Opdef.kind with
  | Opdef.Matmul mm ->
      let a_shape = Opdef.input_shape op mm.a in
      let b_shape = Opdef.input_shape op mm.b in
      let outs =
        [ Layout.create op.Opdef.out_shape; swap op.Opdef.out_shape ]
      in
      let avs = [ Layout.create a_shape; swap a_shape ] in
      let bvs =
        [
          Layout.create b_shape;
          swap b_shape;
          pad_last (Layout.create b_shape);
          pad_last (swap b_shape);
        ]
      in
      List.concat_map
        (fun o ->
          List.concat_map
            (fun a ->
              List.map
                (fun b ->
                  {
                    Propagate.out_layout = o;
                    in_layouts = [ (mm.a, a); (mm.b, b) ];
                  })
                bvs)
            avs)
        outs
  | Opdef.Conv c ->
      let triv = trivial_choice op and cl = channels_last_choice op in
      let inp_of ch = List.assoc c.inp ch.Propagate.in_layouts in
      let ker_of ch = List.assoc c.ker ch.Propagate.in_layouts in
      let outs = [ triv.Propagate.out_layout; cl.Propagate.out_layout ] in
      let inps = [ inp_of triv; inp_of cl; pad_last (inp_of triv) ] in
      let kers = [ ker_of triv; ker_of cl ] in
      List.concat_map
        (fun o ->
          List.concat_map
            (fun i ->
              List.map
                (fun k ->
                  {
                    Propagate.out_layout = o;
                    in_layouts = [ (c.inp, i); (c.ker, k) ];
                  })
                kers)
            inps)
        outs
  | Opdef.Simple ->
      (* streaming grid: row- vs column-major storage of every tensor,
         with padded variants of the inputs.  A transposed input turns a
         unit-stride sweep into a large-stride one — the axis both a
         cache model and a real machine must price. *)
      if Shape.rank op.Opdef.out_shape < 2 then [ trivial_choice op ]
      else
        let outs =
          [
            Layout.create op.Opdef.out_shape;
            swap op.Opdef.out_shape;
          ]
        in
        let swap' sh = if Shape.rank sh < 2 then Layout.create sh else swap sh in
        let in_variants =
          [
            (fun sh -> Layout.create sh);
            swap';
            (fun sh -> pad_last (Layout.create sh));
            (fun sh -> pad_last (swap' sh));
          ]
        in
        List.concat_map
          (fun o ->
            List.map
              (fun v ->
                {
                  Propagate.out_layout = o;
                  in_layouts =
                    List.map (fun (n, sh) -> (n, v sh)) op.Opdef.inputs;
                })
              in_variants)
          outs

(* ------------------------------------------------------------------ *)
(* Named presets                                                      *)
(* ------------------------------------------------------------------ *)

let preset_choices =
  [
    ("default", fun ~lanes:_ op -> trivial_choice op);
    ("channels-last", fun ~lanes:_ op -> channels_last_choice op);
    ("blocked", fun ~lanes op -> blocked_choice op ~block:(2 * lanes));
    ( "alt",
      fun ~lanes:_ op ->
        match for_op op with
        | Some tpl -> tpl.decode (Array.make (Array.length tpl.knobs) 0.4)
        | None -> trivial_choice op );
  ]

let presets = List.map fst preset_choices

let preset (machine : Alt_machine.Machine.t) (op : Opdef.t) name =
  Option.map
    (fun choose ->
      let choice = choose ~lanes:machine.Alt_machine.Machine.lanes op in
      let rank = Shape.rank (Layout.physical_shape choice.Propagate.out_layout) in
      let nred = List.length op.Opdef.reduce in
      (choice, Alt_ir.Schedule.(vectorize (default ~rank ~nred))))
    (List.assoc_opt name preset_choices)
