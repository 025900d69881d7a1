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
   logical row-major buffers and is the correctness oracle for every
   layout/loop transformation: tests, examples, [Graph.reference_execute]
   and the performance ledger all check against it.  Its contract:
   - it compiles the operator into closures once per call, then visits
     every point as a tree walk would, so its output is bit-identical to
     the naive tree-walking interpreter the test suite keeps
     (test/test_oracle.ml);
   - it interprets the op's logical index expressions as written, with
     no simplification or affine analysis;
   - it shares nothing with what it checks: no layouts, lowering, loop
     environments, programs, kernels or profiler. *)

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

let window_fn t : Alt_tensor.Layout.window =
  fun v -> List.assoc_opt v (List.map (fun (w, s) -> (w, s)) t.window)

(* Arithmetic work per output point (for FLOP accounting). *)
let flops t =
  let per_point = Sexpr.arith_ops t.body in
  let acc = match t.combiner with Assign -> 0 | Sum | Max -> 1 in
  let red = List.fold_left (fun p (_, e) -> p * e) 1 t.reduce in
  Shape.num_elements t.out_shape * red * (per_point + acc)

(* The oracle (see the header for its contract).  Every spatial and
   reduce iterator gets a slot in one [int array]; every index
   expression, select condition and body node becomes a closure over it
   that mirrors [Ixexpr.eval], [Sexpr.eval_cond] and [Sexpr.eval] case by
   case, with the same [fdiv]/[fmod], [apply_binop] and [apply_unop];
   every load resolves its buffer, shape and strides once.  Output points
   are visited in row-major order and written at a running offset; each
   one's reduction points are visited lexicographically from [init]. *)
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
  (* One slot per iterator; an iterator bound twice shares its slot, so
     the innermost binding wins, as in a variable environment. *)
  let slots = Hashtbl.create 16 in
  let slot v =
    match Hashtbl.find_opt slots (Var.id v) with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.replace slots (Var.id v) s;
        s
  in
  let spatial =
    Array.to_list (Array.mapi (fun d ext -> (slot t.spatial.(d), ext)) t.out_shape)
  in
  let reduce = List.map (fun (v, ext) -> (slot v, ext)) t.reduce in
  let env = Array.make (Hashtbl.length slots) 0 in
  let rec ix (e : Ixexpr.t) : unit -> int =
    match e with
    | Const n -> fun () -> n
    | Var v -> (
        match Hashtbl.find_opt slots (Var.id v) with
        | Some s -> fun () -> env.(s)
        | None ->
            fun () ->
              invalid_arg (Fmt.str "reference_eval: unbound var %s" (Var.name v)))
    | Add (a, b) ->
        let a = ix a and b = ix b in
        fun () -> a () + b ()
    | Sub (a, b) ->
        let a = ix a and b = ix b in
        fun () -> a () - b ()
    | Mul (a, b) ->
        let a = ix a and b = ix b in
        fun () -> a () * b ()
    | Div (a, b) ->
        let a = ix a and b = ix b in
        fun () -> Ixexpr.fdiv (a ()) (b ())
    | Mod (a, b) ->
        let a = ix a and b = ix b in
        fun () -> Ixexpr.fmod (a ()) (b ())
    | Min (a, b) ->
        let a = ix a and b = ix b in
        fun () -> Int.min (a ()) (b ())
    | Max (a, b) ->
        let a = ix a and b = ix b in
        fun () -> Int.max (a ()) (b ())
  in
  let rec cond (c : Sexpr.cond) : unit -> bool =
    match c with
    | Cmp (op, a, b) -> (
        let a = ix a and b = ix b in
        match op with
        | Clt -> fun () -> a () < b ()
        | Cle -> fun () -> a () <= b ()
        | Cgt -> fun () -> a () > b ()
        | Cge -> fun () -> a () >= b ()
        | Ceq -> fun () -> a () = b ())
    | And (a, b) ->
        let a = cond a and b = cond b in
        fun () -> a () && b ()
    | Or (a, b) ->
        let a = cond a and b = cond b in
        fun () -> a () || b ()
  in
  let load name idx : unit -> float =
    match List.assoc_opt name t.inputs with
    | None ->
        fun () -> invalid_arg (Fmt.str "Opdef %s: unknown input %s" t.name name)
    | Some shape ->
        let data = List.assoc name inputs in
        let strides = Shape.strides shape in
        let idx = Array.map ix idx in
        let rank = Shape.rank shape in
        if Array.length idx <> rank then fun () ->
          invalid_arg
            (Fmt.str "reference_eval %s: %d indices into rank-%d %s" t.name
               (Array.length idx) rank name)
        else fun () ->
          let off = ref 0 in
          for d = 0 to rank - 1 do
            let x = idx.(d) () in
            if x < 0 || x >= shape.(d) then
              invalid_arg
                (Fmt.str "reference_eval %s: index %d out of bounds for dim %d of %s%a"
                   t.name x d name Shape.pp shape);
            off := !off + (x * strides.(d))
          done;
          data.(!off)
  in
  let rec body (e : Sexpr.t) : unit -> float =
    match e with
    | Load (name, idx) -> load name idx
    | Fconst f -> fun () -> f
    | Bin (op, a, b) ->
        let a = body a and b = body b in
        fun () -> Sexpr.apply_binop op (a ()) (b ())
    | Un (op, a) ->
        let a = body a in
        fun () -> Sexpr.apply_unop op (a ())
    | Select (c, a, b) ->
        let c = cond c and a = body a and b = body b in
        fun () -> if c () then a () else b ()
  in
  let value = body t.body in
  let acc = ref 0.0 in
  let step =
    match t.combiner with
    | Assign -> fun () -> acc := value ()
    | Sum -> fun () -> acc := !acc +. value ()
    | Max -> fun () -> acc := Float.max !acc (value ())
  in
  (* [inner] at every point of [loops], the first one outermost *)
  let nest loops inner =
    List.fold_right
      (fun (s, ext) inner () ->
        for x = 0 to ext - 1 do
          env.(s) <- x;
          inner ()
        done)
      loops inner
  in
  let reduction = nest reduce step in
  let acc0 = if t.combiner = Assign then 0.0 else t.init in
  let out = Array.make (Shape.num_elements t.out_shape) 0.0 in
  let off = ref 0 in
  let point () =
    acc := acc0;
    reduction ();
    out.(!off) <- !acc;
    incr off
  in
  nest spatial point ();
  out
