(* Layout propagation (paper Section 4.2, Algorithm 1) and end-to-end
   compilation planning.

   Given layout choices for complex operators, this module decides:
   - the storage layout every tensor is materialized in,
   - which elementwise producers *emit* a requested layout directly
     (Fig. 5b — backward propagation, avoiding a conversion operator),
   - which consumer chains share the producer's output layout so that
     operator fusion stays legal (forward propagation, Fig. 7),
   - where conversion operators must be inserted (the constraints of
     Algorithm 1: advanced primitives are never propagated further, complex
     operators are tuned independently, and primitives only replicate
     across same-shaped elementwise operators).

   The propagation [mode] realizes the paper's ablation variants:
   - [Full]     : ALT (backward emission + forward sharing + fusion);
   - [Adjacent] : ALT-WP (only adjacent conversion elimination; consumers
                  keep their own layouts, so fusion with transformed
                  producers conflicts and is lost);
   - [Off]      : every mismatch goes through a conversion operator. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Opdef = Alt_ir.Opdef

type mode = Full | Adjacent | Off

type choice = {
  out_layout : Layout.t;
  in_layouts : (string * Layout.t) list;
}

(* A compilation stage, in execution order. *)
type stage =
  | Convert of { tensor : string; src : Layout.t; dst : Layout.t }
      (* materialize [tensor] additionally in layout [dst] *)
  | Complex_stage of {
      node : Graph.node;
      out_layout : Layout.t;
      in_layouts : (string * Layout.t) list; (* layout used for each read *)
      fused : Graph.node list; (* elementwise chain fused into the nest *)
    }
  | Simple_stage of { node : Graph.node; out_layout : Layout.t }

type plan = {
  stages : stage list;
  storage : (string * Layout.t) list; (* final storage layout per tensor *)
  conversions : int;
  fused_ops : int;
}

let trivial_of g name = Layout.create (Graph.tensor_shape g name)

(* Is [node] a pure elementwise operator (Assign, no reductions)? *)
let is_assign (n : Graph.node) = n.Graph.op.Opdef.combiner = Opdef.Assign

let single_consumer g name =
  match Graph.consumers g name with [ c ] -> Some c | _ -> None

let plan ?(mode = Full) (g : Graph.t)
    ~(choices : (string * choice) list) : plan =
  let storage : (string, Layout.t) Hashtbl.t = Hashtbl.create 64 in
  let claimed : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let emitted : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* conversions needed by a complex node, keyed by node name *)
  let pending_converts : (string, stage list) Hashtbl.t = Hashtbl.create 16 in
  (* reads of each complex node: tensor -> layout actually read *)
  let reads : (string, (string * Layout.t) list) Hashtbl.t = Hashtbl.create 16 in
  (* producer out name -> fused consumer chain *)
  let fusion : (string, Graph.node list) Hashtbl.t = Hashtbl.create 16 in
  let in_chain : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let get_storage name =
    match Hashtbl.find_opt storage name with
    | Some l -> l
    | None -> trivial_of g name
  in
  (* ---- pass 1: decisions ---- *)
  Array.iter
    (fun (node : Graph.node) ->
      let op = node.Graph.op in
      match List.assoc_opt op.Opdef.name choices with
      | None -> ()
      | Some ch ->
          (* Output layout. *)
          Hashtbl.replace storage op.Opdef.out_name ch.out_layout;
          Hashtbl.replace claimed op.Opdef.out_name ();
          (* Forward propagation: share the output primitives along the
             single-consumer elementwise chain so fusion stays aligned. *)
          if mode = Full then begin
            let rec walk cur =
              match single_consumer g cur with
              | Some cons
                when is_assign cons
                     && (not cons.Graph.op.Opdef.complex)
                     && Shape.equal cons.Graph.op.Opdef.out_shape
                          op.Opdef.out_shape
                     && (not (Hashtbl.mem claimed cons.Graph.op.Opdef.out_name))
                     && not (Layout.has_advanced ch.out_layout) ->
                  let cl =
                    Layout.replay cons.Graph.op.Opdef.out_shape ch.out_layout
                  in
                  Hashtbl.replace storage cons.Graph.op.Opdef.out_name cl;
                  Hashtbl.replace claimed cons.Graph.op.Opdef.out_name ();
                  Hashtbl.replace fusion op.Opdef.out_name
                    ((try Hashtbl.find fusion op.Opdef.out_name with Not_found -> [])
                    @ [ cons ]);
                  Hashtbl.replace in_chain cons.Graph.op.Opdef.out_name ();
                  walk cons.Graph.op.Opdef.out_name
              | _ -> ()
            in
            walk op.Opdef.out_name
          end;
          (* Input layouts. *)
          let node_reads = ref [] in
          List.iter
            (fun (t, _) ->
              let desired =
                match List.assoc_opt t ch.in_layouts with
                | Some l -> l
                | None -> get_storage t
              in
              let current = get_storage t in
              if Layout.equal desired current then
                node_reads := (t, current) :: !node_reads
              else if
                Graph.is_param g t
                && (not (Hashtbl.mem claimed t))
                && List.length (Graph.consumers g t) = 1
              then begin
                (* constants are repacked offline for free *)
                Hashtbl.replace storage t desired;
                Hashtbl.replace claimed t ();
                node_reads := (t, desired) :: !node_reads
              end
              else if
                Graph.is_input g t
                && (not (Hashtbl.mem claimed t))
                && List.length (Graph.consumers g t) = 1
              then begin
                (* graph inputs are packed at entry in the desired layout *)
                Hashtbl.replace storage t desired;
                Hashtbl.replace claimed t ();
                node_reads := (t, desired) :: !node_reads
              end
              else if
                mode <> Off
                && (match Graph.producer g t with
                   | Some p ->
                       is_assign p
                       && (not p.Graph.op.Opdef.complex)
                       && (not (Hashtbl.mem claimed t))
                       && List.length (Graph.consumers g t) = 1
                   | None -> false)
              then begin
                (* Fig. 5b: the simple producer emits the desired layout
                   directly, performing the conversion as part of its work *)
                Hashtbl.replace storage t desired;
                Hashtbl.replace claimed t ();
                Hashtbl.replace emitted t ();
                node_reads := (t, desired) :: !node_reads
              end
              else begin
                (* conversion operator before this node (Fig. 5a) *)
                let prev =
                  try Hashtbl.find pending_converts op.Opdef.name
                  with Not_found -> []
                in
                Hashtbl.replace pending_converts op.Opdef.name
                  (prev @ [ Convert { tensor = t; src = current; dst = desired } ]);
                node_reads := (t, desired) :: !node_reads
              end)
            op.Opdef.inputs;
          Hashtbl.replace reads op.Opdef.name (List.rev !node_reads))
    g.Graph.nodes;
  (* ---- pass 2: stage emission ----
     A fused group (producer + elementwise chain) is emitted at the
     position of its *last* member: fused consumers may read tensors
     produced between the producer and themselves (e.g. a residual branch),
     so emitting at the producer's position would break dependencies. *)
  let conversions = ref 0 and fused_ops = ref 0 in
  let stages = ref [] in
  (* emit position (node id of the last fused member) -> complex node *)
  let emit_at : (int, Graph.node) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (node : Graph.node) ->
      let op = node.Graph.op in
      if
        List.mem_assoc op.Opdef.name choices
        && not (Hashtbl.mem in_chain op.Opdef.out_name)
      then begin
        let fused =
          try Hashtbl.find fusion op.Opdef.out_name with Not_found -> []
        in
        let pos =
          List.fold_left
            (fun p (c : Graph.node) -> max p c.Graph.nid)
            node.Graph.nid fused
        in
        Hashtbl.replace emit_at pos node
      end)
    g.Graph.nodes;
  let emit_complex (node : Graph.node) =
    let op = node.Graph.op in
    (match Hashtbl.find_opt pending_converts op.Opdef.name with
    | Some cs ->
        conversions := !conversions + List.length cs;
        stages := List.rev_append cs !stages
    | None -> ());
    let fused = try Hashtbl.find fusion op.Opdef.out_name with Not_found -> [] in
    fused_ops := !fused_ops + List.length fused;
    (* layouts for the fused consumers' extra inputs *)
    let extra =
      List.concat_map
        (fun (c : Graph.node) ->
          List.filter_map
            (fun (t, _) ->
              if t = op.Opdef.out_name || Hashtbl.mem in_chain t then
                None (* produced inside the fused nest *)
              else Some (t, get_storage t))
            c.Graph.op.Opdef.inputs)
        fused
    in
    stages :=
      Complex_stage
        {
          node;
          out_layout = Hashtbl.find storage op.Opdef.out_name;
          in_layouts = Hashtbl.find reads op.Opdef.name @ extra;
          fused;
        }
      :: !stages
  in
  Array.iter
    (fun (node : Graph.node) ->
      let op = node.Graph.op in
      if
        (not (Hashtbl.mem in_chain op.Opdef.out_name))
        && (not (List.mem_assoc op.Opdef.name choices))
      then
        stages :=
          Simple_stage { node; out_layout = get_storage op.Opdef.out_name }
          :: !stages;
      match Hashtbl.find_opt emit_at node.Graph.nid with
      | Some cnode -> emit_complex cnode
      | None -> ())
    g.Graph.nodes;
  let storage_list =
    let names =
      List.map fst (g.Graph.inputs @ g.Graph.params)
      @ (Array.to_list g.Graph.nodes
        |> List.map (fun n -> n.Graph.op.Opdef.out_name))
    in
    List.map (fun n -> (n, get_storage n)) names
  in
  {
    stages = List.rev !stages;
    storage = storage_list;
    conversions = !conversions;
    fused_ops = !fused_ops;
  }
