(* Tensor shapes and small integer utilities shared across the compiler.

   A shape is the list of dimension extents of a (logical or physical)
   tensor, stored as an [int array].  All layouts in this code base are
   row-major over their physical shape, so strides are derived here. *)

type t = int array

let rank (s : t) = Array.length s

let num_elements (s : t) = Array.fold_left ( * ) 1 s

let equal (a : t) (b : t) = a = b

let pp ppf (s : t) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any "x") int) s

let to_string s = Fmt.str "%a" pp s

let validate (s : t) =
  Array.iter
    (fun d ->
      if d <= 0 then
        invalid_arg (Fmt.str "Shape.validate: non-positive extent in %a" pp s))
    s

(* Row-major strides: stride.(i) = product of extents of dims > i. *)
let strides (s : t) : int array =
  let n = rank s in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * s.(i + 1)
  done;
  st

let offset_of_index (s : t) (idx : int array) =
  let st = strides s in
  let n = rank s in
  if Array.length idx <> n then invalid_arg "Shape.offset_of_index: rank";
  let off = ref 0 in
  for i = 0 to n - 1 do
    if idx.(i) < 0 || idx.(i) >= s.(i) then
      invalid_arg
        (Fmt.str "Shape.offset_of_index: index %d out of bounds for dim %d (%a)"
           idx.(i) i pp s);
    off := !off + (idx.(i) * st.(i))
  done;
  !off

let index_of_offset (s : t) (off : int) : int array =
  let st = strides s in
  Array.mapi (fun i _ -> off / st.(i) mod s.(i)) s

(* Divisors of [n] in increasing order; search spaces of split factors are
   restricted to divisors so that loop splitting never needs guard code. *)
let divisors n =
  if n <= 0 then invalid_arg "Shape.divisors";
  let rec loop d acc =
    if d > n then List.rev acc
    else loop (d + 1) (if n mod d = 0 then d :: acc else acc)
  in
  loop 1 []

let round_to_divisor n x =
  (* Nearest divisor of [n] to [x]; realizes the paper's F = R(D * a). *)
  let ds = divisors n in
  List.fold_left
    (fun best d -> if abs (d - x) < abs (best - x) then d else best)
    1 ds

let cdiv a b = (a + b - 1) / b

let prod_range (a : int array) lo hi =
  let p = ref 1 in
  for i = lo to hi do
    p := !p * a.(i)
  done;
  !p
