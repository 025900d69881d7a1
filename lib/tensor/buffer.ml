(* Concrete tensor storage: a float array laid out according to a layout.

   The [data] array is row-major over the layout's physical shape.  Logical
   views are obtained by packing/unpacking through the layout, which is how
   conversion operators, offline weight packing and test oracles move
   data. *)

type t = { layout : Layout.t; data : float array }

let create layout =
  { layout; data = Array.make (Layout.num_physical_elements layout) 0.0 }

let layout t = t.layout
let data t = t.data
let logical_shape t = Layout.logical_shape t.layout
let physical_shape t = Layout.physical_shape t.layout

let random ?(seed = 0) shape =
  let st = Random.State.make [| seed; Shape.num_elements shape |] in
  let n = Shape.num_elements shape in
  Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let iota shape =
  Array.init (Shape.num_elements shape) (fun i -> float_of_int i)

let max_abs_diff (a : float array) (b : float array) =
  if Array.length a <> Array.length b then invalid_arg "Buffer.max_abs_diff";
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

let allclose ?(tol = 1e-4) a b = max_abs_diff a b <= tol
