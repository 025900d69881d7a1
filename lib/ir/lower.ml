(* Lowering: operator definition + layouts + loop schedule -> program.

   This is the compilation pass described in Section 6 of the paper.  The
   loop nest of an operator mirrors its *output physical layout* one-to-one:
   given output layout S_Y, the spatial loops L' iterate over the physical
   dimensions, the logical output coordinates are recovered as S_Y^{-1}(L'),
   and every access to a tensor X with layout S_X is rewritten to
   S_X(S_Y^{-1}(L')).  Sliding-window accesses into unfolded tensors are
   rewritten with Eq. (1) *before* the inverse substitution, and the
   range-aware simplifier collapses the resulting div/mod chains.

   Elementwise consumers can be fused into the producer's loop nest when
   their output layout carries the same primitive sequence — the
   fusion-legality rule of Section 4.2; [Lower_error] is raised otherwise,
   which the graph layer uses to detect fusion conflicts. *)

module Shape = Alt_tensor.Shape
module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr
module Layout = Alt_tensor.Layout

exception Lower_error of string

let err fmt = Fmt.kstr (fun s -> raise (Lower_error s)) fmt

type fused = { fop : Opdef.t; fout_layout : Layout.t }

(* ------------------------------------------------------------------ *)
(* pexpr helpers                                                      *)
(* ------------------------------------------------------------------ *)

let rec pexpr_of_sexpr ~(load : string -> Ixexpr.t array -> Program.access) =
  function
  | Sexpr.Load (n, idx) -> Program.Pload (load n idx)
  | Sexpr.Fconst f -> Program.Pconst f
  | Sexpr.Bin (op, a, b) ->
      Program.Pbin (op, pexpr_of_sexpr ~load a, pexpr_of_sexpr ~load b)
  | Sexpr.Un (op, a) -> Program.Pun (op, pexpr_of_sexpr ~load a)
  | Sexpr.Select (c, a, b) ->
      Program.Pselect (c, pexpr_of_sexpr ~load a, pexpr_of_sexpr ~load b)

let rec map_pexpr_ix f = function
  | Program.Pload a ->
      Program.Pload { a with idx = Array.map f a.idx }
  | Program.Pconst _ as e -> e
  | Program.Pbin (op, a, b) ->
      Program.Pbin (op, map_pexpr_ix f a, map_pexpr_ix f b)
  | Program.Pun (op, a) -> Program.Pun (op, map_pexpr_ix f a)
  | Program.Pselect (c, a, b) ->
      Program.Pselect (Sexpr.map_cond_ix f c, map_pexpr_ix f a, map_pexpr_ix f b)

(* ------------------------------------------------------------------ *)
(* Loops and slots                                                    *)
(* ------------------------------------------------------------------ *)

let nest_loops loops body =
  List.fold_right (fun l s -> Program.For (l, s)) loops body

(* A program's slot table: [slot_of name layout role] is [name]'s slot,
   registered with [layout] and [role] on first use; [slots ()] lists the
   slots in registration order. *)
let slot_table () =
  let slots = ref [] in
  let slot_of name layout role =
    match List.find_index (fun s -> s.Program.sname = name) !slots with
    | Some i -> i
    | None ->
        slots := !slots @ [ { Program.sname = name; layout; role } ];
        List.length !slots - 1
  in
  (slot_of, fun () -> Array.of_list !slots)

(* A load of tensor [name] stored in [layout] at logical index [idx]: the
   index forwarded through the layout (Eq. (1) aware given [window]). *)
let load_access slot_of ~bounds ?window role name layout idx =
  let idx = Layout.forward_exprs ~bounds ?window layout idx in
  { Program.slot = slot_of name layout role; idx }

(* Substitution of variables by the expressions [tbl] maps their ids to,
   then simplification. *)
let substituter ~bounds tbl e =
  Ixexpr.simplify ~bounds
    (Ixexpr.subst (fun v -> Hashtbl.find_opt tbl (Var.id v)) e)

type dim_loops = {
  outer : Program.loop option;
  inner : Program.loop option;
  expr : Ixexpr.t; (* the coordinate in terms of loop vars *)
}

(* The loops over one dimension of extent [e] with tile factor [f]: a
   single loop when untiled (outer band) or tiled whole (inner band),
   otherwise [e / f] outer tiles of an inner loop of [f].  [mk tag extent]
   makes one loop. *)
let tile_loops mk tag e f =
  if f <= 1 || e = 1 then
    let l = mk tag e in
    { outer = Some l; inner = None; expr = Ixexpr.var l.Program.v }
  else if f >= e then
    let l = mk (tag ^ "i") e in
    { outer = None; inner = Some l; expr = Ixexpr.var l.Program.v }
  else
    let o = mk (tag ^ "o") (e / f) in
    let i = mk (tag ^ "i") f in
    {
      outer = Some o;
      inner = Some i;
      expr =
        Ixexpr.add
          (Ixexpr.mul (Ixexpr.var o.Program.v) (Ixexpr.const f))
          (Ixexpr.var i.Program.v);
    }

let lower ~(op : Opdef.t) ~(layouts : string -> Layout.t)
    ~(out_layout : Layout.t) ?(fused = []) ~(schedule : Schedule.t) () :
    Program.t =
  if not (Shape.equal (Layout.logical_shape out_layout) op.out_shape) then
    err "lower %s: output layout logical shape mismatch" op.name;
  if not (Layout.invertible out_layout) then
    err "lower %s: output layout must be invertible (no unfold/pad)" op.name;
  List.iter
    (fun f ->
      if f.fop.Opdef.combiner <> Opdef.Assign then
        err "lower %s: fused consumer %s is not elementwise" op.name
          f.fop.Opdef.name;
      if not (Shape.equal f.fop.Opdef.out_shape op.out_shape) then
        err "lower %s: fused consumer %s shape mismatch" op.name
          f.fop.Opdef.name;
      if Layout.prims f.fout_layout <> Layout.prims out_layout then
        err
          "lower %s: fusion conflict — consumer %s output layout differs \
           from producer"
          op.name f.fop.Opdef.name)
    fused;

  let phys = Layout.physical_shape out_layout in
  let rank = Shape.rank phys in
  let reduce = Array.of_list op.reduce in
  let schedule =
    Schedule.legalize schedule ~phys ~reduce_extents:(Array.map snd reduce)
  in

  (* Bounds of every variable in play (logical iterators + loop vars). *)
  let btbl : (int, int * int) Hashtbl.t = Hashtbl.create 32 in
  let bounds v = Hashtbl.find_opt btbl (Var.id v) in
  let bind v lo hi = Hashtbl.replace btbl (Var.id v) (lo, hi) in
  Array.iteri (fun i v -> bind v 0 (op.out_shape.(i) - 1)) op.spatial;
  Array.iter (fun (v, e) -> bind v 0 (e - 1)) reduce;
  List.iter
    (fun f -> Array.iteri (fun i v -> bind v 0 (f.fop.Opdef.out_shape.(i) - 1)) f.fop.Opdef.spatial)
    fused;

  (* Spatial loops per physical dimension, then reduction loops. *)
  let mk_loop tag extent =
    let v = Var.fresh tag in
    bind v 0 (extent - 1);
    { Program.v; extent; kind = Program.Serial }
  in
  let dims =
    Array.init rank (fun d ->
        tile_loops mk_loop (Fmt.str "s%d" d) phys.(d) schedule.sp_tiles.(d))
  in
  let rdims =
    Array.mapi
      (fun j (_, e) ->
        tile_loops mk_loop (Fmt.str "r%d" j) e schedule.r_tiles.(j))
      reduce
  in
  let band pick dims = List.filter_map pick (Array.to_list dims) in
  let reduce_loops =
    band (fun d -> d.outer) rdims @ band (fun d -> d.inner) rdims
  in
  let d_exprs = Array.map (fun d -> d.expr) dims in

  (* Logical output coordinates in terms of loop variables: S_Y^{-1}(L'). *)
  let logical, _ = Layout.logical_of_physical ~bounds out_layout d_exprs in

  (* Variable substitution: producer/consumer spatial vars -> logical
     coordinates; reduction vars -> their loop expressions. *)
  let subst_tbl = Hashtbl.create 32 in
  let bind_spatial spatial =
    Array.iteri
      (fun k v -> Hashtbl.replace subst_tbl (Var.id v) logical.(k))
      spatial
  in
  bind_spatial op.spatial;
  List.iter (fun f -> bind_spatial f.fop.Opdef.spatial) fused;
  Array.iteri
    (fun j (rv, _) -> Hashtbl.replace subst_tbl (Var.id rv) rdims.(j).expr)
    reduce;
  let substitute = substituter ~bounds subst_tbl in

  let slot_of, slots = slot_table () in
  List.iter
    (fun (n, shape) ->
      let layout = layouts n in
      if not (Shape.equal (Layout.logical_shape layout) shape) then
        err "lower %s: layout for %s has wrong logical shape" op.name n;
      ignore (slot_of n layout Program.Input : int))
    op.inputs;
  let out_role = if fused = [] then Program.Output else Program.Temp in
  let out_slot = slot_of op.out_name out_layout out_role in

  (* Rewrite the producer body: layout-forward each load (Eq. (1) aware),
     then substitute loop variables and simplify. *)
  let window = Opdef.window_fn op in
  let producer_load name idx =
    load_access slot_of ~bounds ~window Program.Input name (layouts name) idx
  in
  let body =
    map_pexpr_ix substitute (pexpr_of_sexpr ~load:producer_load op.body)
  in
  let out_access = { Program.slot = out_slot; idx = d_exprs } in

  (* Fused consumers: lowered at the same loop point.  A consumer load of a
     tensor already produced in this nest resolves to that slot through the
     shared output layout. *)
  let produced = Hashtbl.create 4 in
  Hashtbl.replace produced op.out_name out_layout;
  let consumer_stmts =
    List.mapi
      (fun ci f ->
        let cop = f.fop in
        let load name idx =
          match Hashtbl.find_opt produced name with
          | Some lay -> load_access slot_of ~bounds Program.Temp name lay idx
          | None ->
              load_access slot_of ~bounds Program.Input name (layouts name) idx
        in
        let b = map_pexpr_ix substitute (pexpr_of_sexpr ~load cop.Opdef.body) in
        let role =
          if ci = List.length fused - 1 then Program.Output else Program.Temp
        in
        let cslot = slot_of cop.Opdef.out_name f.fout_layout role in
        Hashtbl.replace produced cop.Opdef.out_name f.fout_layout;
        Program.Store ({ Program.slot = cslot; idx = d_exprs }, b))
      fused
  in

  (* Assemble the loop nest. *)
  let outer_band = band (fun d -> d.outer) dims in
  let inner_band = band (fun d -> d.inner) dims in
  let outer_band =
    List.mapi
      (fun i l ->
        if i < schedule.parallel then { l with Program.kind = Program.Parallel }
        else l)
      outer_band
  in
  let mark_last kind = function
    | [] -> []
    | ls ->
        let n = List.length ls in
        List.mapi (fun i l -> if i = n - 1 then { l with Program.kind = kind } else l) ls
  in
  let outer_band, inner_band =
    if not schedule.vectorize then (outer_band, inner_band)
    else if inner_band <> [] then
      (outer_band, mark_last Program.Vectorized inner_band)
    else (mark_last Program.Vectorized outer_band, inner_band)
  in
  let reduce_loops =
    if schedule.unroll then mark_last Program.Unrolled reduce_loops
    else reduce_loops
  in

  let body_stmt =
    match op.combiner with
    | Opdef.Assign ->
        let core = Program.Block (Program.Store (out_access, body) :: consumer_stmts) in
        nest_loops outer_band (nest_loops inner_band core)
    | Opdef.Sum | Opdef.Max ->
        let red = match op.combiner with Opdef.Sum -> Program.Rsum | _ -> Program.Rmax in
        let init_stmt = Program.Store (out_access, Program.Pconst op.init) in
        let update = Program.Reduce (out_access, red, body) in
        if schedule.reduce_outer then
          let inner_init = nest_loops inner_band init_stmt in
          let inner_update = nest_loops reduce_loops (nest_loops inner_band update) in
          let epilogue =
            if consumer_stmts = [] then []
            else [ nest_loops inner_band (Program.Block consumer_stmts) ]
          in
          nest_loops outer_band
            (Program.Block ([ inner_init; inner_update ] @ epilogue))
        else
          let core =
            Program.Block
              ((init_stmt :: [ nest_loops reduce_loops update ]) @ consumer_stmts)
          in
          nest_loops outer_band (nest_loops inner_band core)
  in
  let flops =
    Opdef.flops op + List.fold_left (fun a f -> a + Opdef.flops f.fop) 0 fused
  in
  { Program.pname = op.name; body = body_stmt; slots = slots (); flops }

(* ------------------------------------------------------------------ *)
(* Destination nests: conversions and layout-writing elementwise ops  *)
(* ------------------------------------------------------------------ *)

(* The nest over [dst]'s whole physical space (Fig. 5): one loop per
   physical dimension, named [tag] and its index, the innermost
   vectorized and, when [parallel], the outermost parallel.  Returns the
   bounds of the loop variables, their logical coordinates S^{-1}, and
   [store slot value]: the nest around a store of [value] into [slot] that
   writes zero instead wherever the coordinates fall outside the tensor
   (pad margins, unfold overhang). *)
let dest_nest ~tag ~parallel dst =
  let phys = Layout.physical_shape dst in
  let rank = Shape.rank phys in
  let btbl = Hashtbl.create 16 in
  let bounds v = Hashtbl.find_opt btbl (Var.id v) in
  let loops =
    List.init rank (fun d ->
        let v = Var.fresh (Fmt.str "%s%d" tag d) in
        Hashtbl.replace btbl (Var.id v) (0, phys.(d) - 1);
        let kind =
          if d = rank - 1 then Program.Vectorized
          else if parallel && d = 0 then Program.Parallel
          else Program.Serial
        in
        { Program.v; extent = phys.(d); kind })
  in
  let pvars =
    Array.of_list (List.map (fun l -> Ixexpr.var l.Program.v) loops)
  in
  let logical, conds = Layout.logical_of_physical ~bounds dst pvars in
  let in_bounds (e, d) =
    Sexpr.And
      ( Sexpr.Cmp (Sexpr.Cge, e, Ixexpr.const 0),
        Sexpr.Cmp (Sexpr.Clt, e, Ixexpr.const d) )
  in
  let store slot value =
    let value =
      match conds with
      | [] -> value
      | c :: cs ->
          let cond =
            List.fold_left
              (fun a c -> Sexpr.And (a, in_bounds c))
              (in_bounds c) cs
          in
          Program.Pselect (cond, value, Program.Pconst 0.0)
    in
    nest_loops loops (Program.Store ({ Program.slot; idx = pvars }, value))
  in
  (bounds, logical, store)

(* A conversion operator copies a tensor stored with [src] layout into
   [dst] layout (Fig. 5a). *)
let conversion ?(name = "convert") ~(src : Layout.t) ~(dst : Layout.t) () :
    Program.t =
  if not (Shape.equal (Layout.logical_shape src) (Layout.logical_shape dst))
  then err "conversion: logical shapes differ";
  if not (Layout.invertible src) then
    err "conversion: source layout must be invertible";
  let bounds, logical, store = dest_nest ~tag:"c" ~parallel:false dst in
  let src_idx = Layout.forward_exprs ~bounds src logical in
  {
    Program.pname = name;
    body = store 1 (Program.Pload { Program.slot = 0; idx = src_idx });
    slots =
      [|
        { Program.sname = name ^ ".src"; layout = src; role = Program.Input };
        { Program.sname = name ^ ".dst"; layout = dst; role = Program.Output };
      |];
    flops = 0;
  }

(* Lower an [Assign] operator so that it *writes* an output layout that may
   contain advanced primitives (pad / unfold).  This realizes Fig. 5b: when
   a layout is propagated backward onto a simple producer, that producer
   performs the conversion as part of its own work instead of a separate
   conversion operator.  Overlapped (unfolded) positions are computed
   redundantly. *)
let lower_assign_to ~(op : Opdef.t) ~(layouts : string -> Layout.t)
    ~(out_layout : Layout.t) : Program.t =
  if op.Opdef.combiner <> Opdef.Assign then
    err "lower_assign_to %s: operator is not elementwise" op.Opdef.name;
  if not (Shape.equal (Layout.logical_shape out_layout) op.Opdef.out_shape)
  then err "lower_assign_to %s: output layout shape mismatch" op.Opdef.name;
  let bounds, logical, store = dest_nest ~tag:"e" ~parallel:true out_layout in
  (* Bind spatial vars to the recovered logical coordinates.  At padded
     positions these can be out of range; the store's guard keeps
     evaluation inside the valid branch. *)
  let subst_tbl = Hashtbl.create 16 in
  Array.iteri
    (fun k v -> Hashtbl.replace subst_tbl (Var.id v) logical.(k))
    op.Opdef.spatial;
  let slot_of, slots = slot_table () in
  List.iter
    (fun (n, _) -> ignore (slot_of n (layouts n) Program.Input : int))
    op.Opdef.inputs;
  let load name idx =
    load_access slot_of ~bounds Program.Input name (layouts name) idx
  in
  let body =
    map_pexpr_ix
      (substituter ~bounds subst_tbl)
      (pexpr_of_sexpr ~load op.Opdef.body)
  in
  let out_slot = slot_of op.Opdef.out_name out_layout Program.Output in
  {
    Program.pname = op.Opdef.name;
    body = store out_slot body;
    slots = slots ();
    flops = Opdef.flops op;
  }
