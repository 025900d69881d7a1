(* Computational graphs: operators as nodes, tensors as edges.

   Tensors are identified by unique names.  A tensor is either a graph
   input, a parameter (constant weight, packable offline for free), or the
   output of exactly one node.  Nodes are kept in topological order by
   construction.  The [reference_execute] interpreter evaluates the whole
   graph naively over logical buffers and is the end-to-end correctness
   oracle for compiled/tuned executions. *)

module Shape = Alt_tensor.Shape
module Buffer = Alt_tensor.Buffer
module Opdef = Alt_ir.Opdef

type node = { nid : int; op : Opdef.t }

type t = {
  inputs : (string * Shape.t) list;
  params : (string * Shape.t) list;
  nodes : node array; (* topological *)
  outputs : string list;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable b_inputs : (string * Shape.t) list;
  mutable b_params : (string * Shape.t) list;
  mutable b_nodes : node list; (* reversed *)
  mutable b_shapes : (string * Shape.t) list; (* every known tensor *)
  mutable b_next : int;
}

let builder () =
  { b_inputs = []; b_params = []; b_nodes = []; b_shapes = []; b_next = 0 }

let declare b name shape =
  if List.mem_assoc name b.b_shapes then
    invalid_arg (Fmt.str "Graph: duplicate tensor name %s" name);
  b.b_shapes <- (name, shape) :: b.b_shapes

let input b name shape =
  declare b name shape;
  b.b_inputs <- b.b_inputs @ [ (name, shape) ];
  name

let param b name shape =
  declare b name shape;
  b.b_params <- b.b_params @ [ (name, shape) ];
  name

let add b (op : Opdef.t) =
  List.iter
    (fun (n, s) ->
      match List.assoc_opt n b.b_shapes with
      | Some s' when Shape.equal s s' -> ()
      | Some s' ->
          invalid_arg
            (Fmt.str "Graph: op %s expects %s%a but tensor is %a" op.Opdef.name
               n Shape.pp s Shape.pp s')
      | None ->
          invalid_arg
            (Fmt.str "Graph: op %s reads unknown tensor %s" op.Opdef.name n))
    op.Opdef.inputs;
  declare b op.Opdef.out_name op.Opdef.out_shape;
  let nid = b.b_next in
  b.b_next <- nid + 1;
  b.b_nodes <- { nid; op } :: b.b_nodes;
  op.Opdef.out_name

let finish b ~outputs =
  let shapes = b.b_shapes in
  List.iter
    (fun o ->
      if not (List.mem_assoc o shapes) then
        invalid_arg (Fmt.str "Graph: unknown output tensor %s" o))
    outputs;
  {
    inputs = b.b_inputs;
    params = b.b_params;
    nodes = Array.of_list (List.rev b.b_nodes);
    outputs;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let producer g name =
  Array.to_seq g.nodes
  |> Seq.find (fun n -> n.op.Opdef.out_name = name)

let consumers g name =
  Array.to_list g.nodes
  |> List.filter (fun n -> List.mem_assoc name n.op.Opdef.inputs)

let is_input g name = List.mem_assoc name g.inputs
let is_param g name = List.mem_assoc name g.params

let tensor_shape g name =
  match List.assoc_opt name g.inputs with
  | Some s -> s
  | None -> (
      match List.assoc_opt name g.params with
      | Some s -> s
      | None -> (
          match producer g name with
          | Some n -> n.op.Opdef.out_shape
          | None -> invalid_arg (Fmt.str "Graph.tensor_shape: unknown %s" name)))

let complex_nodes g =
  Array.to_list g.nodes |> List.filter (fun n -> n.op.Opdef.complex)

(* ------------------------------------------------------------------ *)
(* Reference execution                                                *)
(* ------------------------------------------------------------------ *)

let reference_execute g ~(feeds : (string * float array) list) :
    (string * float array) list =
  let env = Hashtbl.create 64 in
  List.iter (fun (n, a) -> Hashtbl.replace env n a) feeds;
  List.iter
    (fun (n, _) ->
      if not (Hashtbl.mem env n) then
        invalid_arg (Fmt.str "Graph.reference_execute: missing feed %s" n))
    (g.inputs @ g.params);
  Array.iter
    (fun node ->
      let ins =
        List.map
          (fun (n, _) -> (n, Hashtbl.find env n))
          node.op.Opdef.inputs
      in
      Hashtbl.replace env node.op.Opdef.out_name
        (Opdef.reference_eval node.op ins))
    g.nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) env []

(* Deterministic random feeds for all inputs and params. *)
let random_feeds ?(seed = 42) g : (string * float array) list =
  List.mapi
    (fun i (n, s) -> (n, Buffer.random ~seed:(seed + i) s))
    (g.inputs @ g.params)

let pp ppf g =
  Fmt.pf ppf "graph: %d inputs, %d params, %d nodes, outputs [%a]@."
    (List.length g.inputs) (List.length g.params) (Array.length g.nodes)
    Fmt.(list ~sep:comma string)
    g.outputs;
  Array.iter
    (fun n ->
      Fmt.pf ppf "  %3d: %s -> %s %a%s@." n.nid n.op.Opdef.name
        n.op.Opdef.out_name Shape.pp n.op.Opdef.out_shape
        (if n.op.Opdef.complex then " [complex]" else ""))
    g.nodes
