(* Logical tensor data: deterministic contents and element-wise
   comparison of flat row-major [float array]s.  Physical buffers are
   plain arrays too, packed and unpacked through their layouts. *)

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
