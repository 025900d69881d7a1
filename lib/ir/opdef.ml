(* Operator compute definitions: an einsum-like description of one tensor
   operator, independent of data layouts and loop schedules.

   An operator produces one output tensor.  [spatial] has one iterator per
   logical output dimension; [reduce] lists reduction iterators with their
   extents; [body] is evaluated for every (spatial x reduce) point and
   combined with [combiner] ([`Assign] means a pure elementwise operator
   with no reduction).

   [window] annotates spatial iterators that participate in sliding-window
   accesses (e.g. the output height/width of a convolution) with their
   constant stride V — the information the unfold rewrite (Eq. (1)) needs.

   The [reference_eval] interpreter computes the operator naively over
   logical row-major buffers and serves as the correctness oracle for every
   layout/loop transformation in the test suite. *)

module Shape = Alt_tensor.Shape
module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr

type combiner = Sum | Max | Assign

(* Metadata the layout-template builder needs about a convolution-like
   operator: which output dim is the channel, which input-tensor dim holds
   input channels, which weight dims to tile, and the sliding-window
   geometry per spatial dimension. *)
type conv_spatial = {
  out_dim : int; (* output tensor dim *)
  inp_dim : int; (* input tensor dim *)
  kernel : int;
  stride : int;
  dilation : int;
}

type kind =
  | Simple
  | Conv of {
      inp : string;
      ker : string;
      out_channel_dim : int;
      inp_channel_dim : int;
      ker_out_dim : int;
      ker_in_dim : int option; (* None for depthwise weights *)
      spatials : conv_spatial list;
    }
  | Matmul of { a : string; b : string; batched : bool }

type t = {
  name : string;
  inputs : (string * Shape.t) list;
  out_name : string;
  out_shape : Shape.t;
  spatial : Var.t array;
  reduce : (Var.t * int) list;
  combiner : combiner;
  init : float;
  body : Sexpr.t;
  window : (Var.t * int) list;
  complex : bool;
      (* "complex operator" in the paper's sense: convolutions and GMM,
         whose tensors get layout tuning spaces (Section 5.1). *)
  kind : kind;
}

let validate t =
  if Array.length t.spatial <> Shape.rank t.out_shape then
    invalid_arg
      (Fmt.str "Opdef %s: %d spatial vars for rank-%d output" t.name
         (Array.length t.spatial) (Shape.rank t.out_shape));
  if t.combiner = Assign && t.reduce <> [] then
    invalid_arg (Fmt.str "Opdef %s: Assign operator with reductions" t.name);
  let known = List.map fst t.inputs in
  List.iter
    (fun (n, _) ->
      if not (List.mem n known) then
        invalid_arg (Fmt.str "Opdef %s: body reads unknown tensor %s" t.name n))
    (Sexpr.loads t.body)

let make ~name ~inputs ~out_name ~out_shape ~spatial ~reduce ~combiner ~init
    ~body ?(window = []) ?(complex = false) ?(kind = Simple) () =
  let t =
    {
      name;
      inputs;
      out_name;
      out_shape;
      spatial;
      reduce;
      combiner;
      init;
      body;
      window;
      complex;
      kind;
    }
  in
  validate t;
  t

let input_shape t name =
  match List.assoc_opt name t.inputs with
  | Some s -> s
  | None -> invalid_arg (Fmt.str "Opdef %s: unknown input %s" t.name name)

(* Inclusive bounds for all iterators of the operator. *)
let bounds t : Ixexpr.bounds =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i v -> Hashtbl.replace tbl (Var.id v) (0, t.out_shape.(i) - 1))
    t.spatial;
  List.iter (fun (v, e) -> Hashtbl.replace tbl (Var.id v) (0, e - 1)) t.reduce;
  fun v -> Hashtbl.find_opt tbl (Var.id v)

let window_fn t : Alt_tensor.Layout.window =
  fun v -> List.assoc_opt v (List.map (fun (w, s) -> (w, s)) t.window)

(* Arithmetic work per output point (for FLOP accounting). *)
let flops t =
  let per_point = Sexpr.arith_ops t.body in
  let acc = match t.combiner with Assign -> 0 | Sum | Max -> 1 in
  let red = List.fold_left (fun p (_, e) -> p * e) 1 t.reduce in
  Shape.num_elements t.out_shape * red * (per_point + acc)

(* Naive interpreter over logical row-major buffers. *)
let reference_eval t (inputs : (string * float array) list) : float array =
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

let pp ppf t =
  Fmt.pf ppf "@[<v>op %s: %s%a = %s(...)@ spatial [%a]@ reduce [%a]@ body %a@]"
    t.name t.out_name Shape.pp t.out_shape t.name
    Fmt.(array ~sep:comma (using Var.name string))
    t.spatial
    Fmt.(list ~sep:comma (pair ~sep:(any ":") (using Var.name string) int))
    t.reduce Sexpr.pp t.body
