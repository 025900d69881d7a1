(* Data layout state and layout primitives (paper Section 4.1).

   A layout is the original (logical) shape of a tensor plus an ordered
   sequence of primitives.  Primitives are cached, exactly as in the paper;
   the actual transformation happens when
   - deducing the physical shape ([physical_shape]),
   - rewriting access expressions during lowering ([forward_exprs],
     implementing Table 1 and the unfold rule Eq. (1)),
   - mapping physical loop variables back to logical coordinates
     ([logical_of_physical], the S_Y^{-1} of Section 6 and the guard of a
     conversion), and
   - moving concrete data ([pack] / [unpack]).

   Each basic primitive's index rewrite is written once, as the forward
   step; the backward walk applies it to the primitive's inverse (split
   and fuse over the same extents swap, a reorder inverts its
   permutation), and only unfold and pad have backward cases of their
   own.  A chain is validated once, when [apply] extends it or
   [physical_shape] misses its memo; every walk then reads intermediate
   shapes with [next_shape].  Only each layout's physical shape is
   memoized (per domain).  The record itself stays the seed
   [{ logical; prims }] pair — candidate digests, fault-injection keys and
   checkpoints all [Marshal] values containing layouts, so the wire shape
   must not change.  The index relation a layout denotes (DESIGN.md §16)
   is its specification and lives with the tests (test/oracle), which pin
   these walks to it.

   Physical buffers are always row-major over the physical shape.

   [store_at] couples two tensors and is therefore represented at the graph
   level (see [Alt_graph.Placement]); this module handles single-tensor
   primitives. *)

exception Layout_error of string

let err fmt = Fmt.kstr (fun s -> raise (Layout_error s)) fmt

type prim =
  | Split of { dim : int; factors : int list }
  | Reorder of int array
  | Fuse of { dim : int; count : int }
  | Unfold of { dim : int; tile : int; stride : int }
  | Pad of { dim : int; lo : int; hi : int }

type t = { logical : Shape.t; prims : prim list (* in application order *) }

let create logical =
  Shape.validate logical;
  { logical; prims = [] }

let logical_shape t = t.logical
let prims t = t.prims
let is_trivial t = t.prims = []

let has_advanced t =
  List.exists
    (function Unfold _ | Pad _ -> true | Split _ | Reorder _ | Fuse _ -> false)
    t.prims

let invertible t =
  List.for_all
    (function Split _ | Reorder _ | Fuse _ -> true | Unfold _ | Pad _ -> false)
    t.prims

let pp_prim ppf = function
  | Split { dim; factors } ->
      Fmt.pf ppf "split(dim=%d, factors=[%a])" dim
        Fmt.(list ~sep:comma int)
        factors
  | Reorder perm -> Fmt.pf ppf "reorder([%a])" Fmt.(array ~sep:comma int) perm
  | Fuse { dim; count } -> Fmt.pf ppf "fuse(dim=%d, count=%d)" dim count
  | Unfold { dim; tile; stride } ->
      Fmt.pf ppf "unfold(dim=%d, tile=%d, stride=%d)" dim tile stride
  | Pad { dim; lo; hi } -> Fmt.pf ppf "pad(dim=%d, lo=%d, hi=%d)" dim lo hi

let pp ppf t =
  Fmt.pf ppf "@[<h>%a :: %a@]" Shape.pp t.logical
    Fmt.(list ~sep:(any " ; ") pp_prim)
    t.prims

let equal a b = Shape.equal a.logical b.logical && a.prims = b.prims

(* ------------------------------------------------------------------ *)
(* Shape deduction.                                                   *)
(* ------------------------------------------------------------------ *)

(* [a] with its [n] entries from [dim] on replaced by [mid]. *)
let splice a dim n mid =
  Array.concat
    [ Array.sub a 0 dim; mid; Array.sub a (dim + n) (Array.length a - dim - n) ]

(* The shape [p] maps [s] to, for a [p] already validated on [s].  An
   unfolded dimension of extent [d] holds ceil((d-B)/S)+1 tiles; the last
   may overhang the tensor, and overhanging positions zero-fill on [pack]
   and are guarded on conversion, matching Section 4.1.2. *)
let next_shape (s : Shape.t) = function
  | Split { dim; factors } -> splice s dim 1 (Array.of_list factors)
  | Reorder perm -> Array.map (fun p -> s.(p)) perm
  | Fuse { dim; count } ->
      splice s dim count [| Shape.prod_range s dim (dim + count - 1) |]
  | Unfold { dim; tile; stride } ->
      splice s dim 1 [| Shape.cdiv (s.(dim) - tile) stride + 1; tile |]
  | Pad { dim; lo; hi } -> splice s dim 1 [| s.(dim) + lo + hi |]

(* Ticks once per primitive validated: the regression test for the
   incremental [apply]/[of_prims]/[replay] path asserts an n-primitive
   chain costs exactly n validations, not the seed's n(n+1)/2. *)
let m_validate = Alt_obs.Metrics.counter "layout.relation.validate"

let shape_step (s : Shape.t) p =
  Alt_obs.Metrics.incr m_validate;
  (match p with
  | Split { dim; factors } ->
      if dim < 0 || dim >= Shape.rank s then err "split: dim %d out of range" dim;
      if factors = [] then err "split: no factors";
      let p = List.fold_left ( * ) 1 factors in
      if p <> s.(dim) then
        err "split: factors product %d <> extent %d (dim %d)" p s.(dim) dim;
      if List.exists (fun f -> f <= 0) factors then err "split: factor <= 0"
  | Reorder perm ->
      let n = Shape.rank s in
      if Array.length perm <> n then err "reorder: permutation rank mismatch";
      let seen = Array.make n false in
      Array.iter
        (fun p ->
          if p < 0 || p >= n || seen.(p) then err "reorder: invalid permutation";
          seen.(p) <- true)
        perm
  | Fuse { dim; count } ->
      if count < 2 then err "fuse: count must be >= 2";
      if dim < 0 || dim + count > Shape.rank s then err "fuse: range out of bounds"
  | Unfold { dim; tile; stride } ->
      if dim < 0 || dim >= Shape.rank s then err "unfold: dim out of range";
      if tile < 1 || stride < 1 then
        err "unfold: tile %d and stride %d must be >= 1" tile stride;
      if tile > s.(dim) then
        err "unfold: tile %d larger than extent %d" tile s.(dim)
  | Pad { dim; lo; hi } ->
      if dim < 0 || dim >= Shape.rank s then err "pad: dim out of range";
      if lo < 0 || hi < 0 then err "pad: negative padding");
  next_shape s p

(* Each primitive paired with the shape it applies to, read with
   [next_shape]: the chain must already be proven legal. *)
let steps t =
  let rec go s = function
    | [] -> []
    | p :: tl -> (s, p) :: go (next_shape s p) tl
  in
  go t.logical t.prims

(* Per-domain memo of each layout's physical shape, keyed structurally by
   the layout itself.  [apply] extends the parent's entry, so growing a
   chain validates each new primitive exactly once; worker domains
   re-derive lazily on first use (the table is domain-local — no
   locking). *)
let memo_key : (t, Shape.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let memo_cap = 65536

let memo_put t phys =
  let tbl = Domain.DLS.get memo_key in
  if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
  Hashtbl.replace tbl t phys

let physical_shape t =
  match Hashtbl.find_opt (Domain.DLS.get memo_key) t with
  | Some phys -> phys
  | None ->
      let phys = List.fold_left shape_step t.logical t.prims in
      memo_put t phys;
      phys

let phys_strides t = Shape.strides (physical_shape t)

(* ------------------------------------------------------------------ *)
(* Primitive constructors (validated against the current shape).       *)
(* ------------------------------------------------------------------ *)

let apply t p =
  (* Validation happens eagerly so misuse fails at schedule-construction
     time, not deep inside lowering; only the new primitive is checked —
     the memoized parent shape already proves the prefix. *)
  let phys = shape_step (physical_shape t) p in
  let t' = { t with prims = t.prims @ [ p ] } in
  memo_put t' phys;
  t'

let split t ~dim ~factors = apply t (Split { dim; factors })
let reorder t perm = apply t (Reorder (Array.copy perm))
let fuse t ~dim ~count = apply t (Fuse { dim; count })
let unfold t ~dim ~tile ~stride = apply t (Unfold { dim; tile; stride })
let pad t ~dim ~lo ~hi = apply t (Pad { dim; lo; hi })

(* ------------------------------------------------------------------ *)
(* Symbolic rewriting: Table 1 and Eq. (1) forward, S^{-1} backward.   *)
(* ------------------------------------------------------------------ *)

type window = Var.t -> int option
(* For sliding-window accesses: maps a window variable (e.g. the output
   height iterator of a convolution) to the constant convolution stride V. *)

let no_window : window = fun _ -> None

let split_exprs e factors =
  (* e over extent (prod factors) -> one expression per factor, row-major. *)
  let fs = Array.of_list factors in
  let m = Array.length fs in
  let tail_prod j = Shape.prod_range fs (j + 1) (m - 1) in
  Array.to_list
    (Array.init m (fun j ->
         let q = Ixexpr.div e (Ixexpr.const (tail_prod j)) in
         if j = 0 then q else Ixexpr.mod_ q (Ixexpr.const fs.(j))))

let fuse_expr es sizes =
  (* indices es with extents sizes -> single row-major expression *)
  let n = Array.length sizes in
  let acc = ref Ixexpr.zero in
  for j = 0 to n - 1 do
    let tail = Shape.prod_range sizes (j + 1) (n - 1) in
    acc := Ixexpr.add !acc (Ixexpr.mul es.(j) (Ixexpr.const tail))
  done;
  !acc

(* The forward index rewrite of [p] applied to shape [s] (Table 1, and
   Eq. (1) for unfold). *)
let forward_step ~bounds ~window (s : Shape.t) idx = function
  | Split { dim; factors } ->
      splice idx dim 1 (Array.of_list (split_exprs idx.(dim) factors))
  | Reorder perm -> Array.map (fun pdim -> idx.(pdim)) perm
  | Fuse { dim; count } ->
      splice idx dim count
        [| fuse_expr (Array.sub idx dim count) (Array.sub s dim count) |]
  | Pad { dim; lo; hi = _ } ->
      splice idx dim 1 [| Ixexpr.add idx.(dim) (Ixexpr.const lo) |]
  | Unfold { dim; tile; stride } ->
      (* Eq. (1): access V*i + r with window var i of stride V becomes
         [ i / wpt ; V*i + r - stride * (i / wpt) ]
         where wpt = floor((tile - M) / V) + 1 and M is the window
         extent (max value of r, plus one). *)
      let e = idx.(dim) in
      let wvars = Var.Set.filter (fun v -> window v <> None) (Ixexpr.vars e) in
      let wv =
        match Var.Set.elements wvars with
        | [ v ] -> v
        | [] ->
            err "unfold: access %a has no window variable (dim %d)" Ixexpr.pp e
              dim
        | _ -> err "unfold: access %a has several window variables" Ixexpr.pp e
      in
      let v_stride = Option.get (window wv) in
      (match Ixexpr.coeff_of ~bounds e wv with
      | Some c when c = v_stride -> ()
      | Some c ->
          err "unfold: window var %a has coefficient %d, stride is %d" Var.pp
            wv c v_stride
      | None -> err "unfold: access %a not affine in window var" Ixexpr.pp e);
      let r = Option.get (Ixexpr.drop_var ~bounds e wv) in
      let m =
        match Ixexpr.range ~bounds r with
        | Some (lo, hi) when lo >= 0 -> hi + 1
        | _ -> err "unfold: cannot bound window extent of %a" Ixexpr.pp r
      in
      if m > tile then
        err "unfold: window extent %d exceeds tile size %d" m tile;
      let wpt = ((tile - m) / v_stride) + 1 in
      let tile_ix =
        Ixexpr.simplify ~bounds (Ixexpr.div (Ixexpr.var wv) (Ixexpr.const wpt))
      in
      let off =
        Ixexpr.simplify ~bounds
          (Ixexpr.sub e (Ixexpr.mul (Ixexpr.const stride) tile_ix))
      in
      splice idx dim 1 [| tile_ix; off |]

let forward_exprs ?(bounds = Ixexpr.no_bounds) ?(window = no_window) t
    (idx : Ixexpr.t array) : Ixexpr.t array =
  if Array.length idx <> Shape.rank t.logical then
    err "forward_exprs: index rank %d <> logical rank %d" (Array.length idx)
      (Shape.rank t.logical);
  ignore (physical_shape t : Shape.t);
  List.fold_left
    (fun idx (s, p) -> forward_step ~bounds ~window s idx p)
    idx (steps t)
  |> Array.map (Ixexpr.simplify ~bounds)

(* The basic primitive undoing [p] applied to shape [s]; it applies to
   [next_shape s p]. *)
let inverse (s : Shape.t) = function
  | Split { dim; factors } -> Fuse { dim; count = List.length factors }
  | Reorder perm ->
      let inv = Array.make (Array.length perm) 0 in
      Array.iteri (fun i p -> inv.(p) <- i) perm;
      Reorder inv
  | Fuse { dim; count } ->
      Split { dim; factors = Array.to_list (Array.sub s dim count) }
  | Unfold _ | Pad _ -> invalid_arg "Layout.inverse: advanced primitive"

(* Physical index exprs -> logical index exprs, walking the chain
   backward: a basic primitive steps forward through its inverse, unfold
   recovers [tile*stride + offset] and pad [i - lo], each guarded by an
   in-bounds condition.  Used for S_Y^{-1} in lowering and to generate
   conversion-operator programs. *)
let logical_of_physical ?(bounds = Ixexpr.no_bounds) t (idx : Ixexpr.t array) :
    Ixexpr.t array * (Ixexpr.t * int) list =
  ignore (physical_shape t : Shape.t);
  let conds = ref [] in
  let guarded e extent =
    conds := (e, extent) :: !conds;
    [| e |]
  in
  let back (s, p) idx =
    match p with
    | Unfold { dim; tile = _; stride } ->
        let e = Ixexpr.mul idx.(dim) (Ixexpr.const stride) in
        splice idx dim 2 (guarded (Ixexpr.add e idx.(dim + 1)) s.(dim))
    | Pad { dim; lo; hi = _ } ->
        let e = Ixexpr.sub idx.(dim) (Ixexpr.const lo) in
        splice idx dim 1 (guarded e s.(dim))
    | Split _ | Reorder _ | Fuse _ ->
        forward_step ~bounds ~window:no_window (next_shape s p) idx
          (inverse s p)
  in
  let logical = List.fold_right back (steps t) idx in
  ( Array.map (Ixexpr.simplify ~bounds) logical,
    List.map (fun (e, d) -> (Ixexpr.simplify ~bounds e, d)) !conds )

(* ------------------------------------------------------------------ *)
(* Concrete data movement.                                            *)
(* ------------------------------------------------------------------ *)

(* Map a physical multi-index to its logical source (total even for unfold
   and pad; pad out-of-range positions return None => zero fill).  The
   chain must already be proven legal (by [physical_shape]): its shapes
   are read with [next_shape], so a walk never ticks [m_validate]. *)
let concrete_logical_of_physical t : int array -> int array option =
  let trace = Array.of_list (List.map fst (steps t)) in
  let prims = Array.of_list t.prims in
  let n = Array.length prims in
  fun phys ->
    let cur = ref (Array.copy phys) in
    let ok = ref true in
    (try
       for i = n - 1 downto 0 do
         let shape_before = trace.(i) in
         let idx = !cur in
         (cur :=
            match prims.(i) with
            | Split { dim; factors } ->
                let sizes = Array.of_list factors in
                let m = Array.length sizes in
                let v = ref 0 in
                for j = 0 to m - 1 do
                  v := (!v * sizes.(j)) + idx.(dim + j)
                done;
                Array.concat
                  [
                    Array.sub idx 0 dim;
                    [| !v |];
                    Array.sub idx (dim + m) (Array.length idx - dim - m);
                  ]
            | Reorder perm ->
                let out = Array.make (Array.length idx) 0 in
                Array.iteri (fun i pdim -> out.(pdim) <- idx.(i)) perm;
                out
            | Fuse { dim; count } ->
                let sizes = Array.sub shape_before dim count in
                let out = Array.make count 0 in
                let v = ref idx.(dim) in
                for j = count - 1 downto 0 do
                  out.(j) <- !v mod sizes.(j);
                  v := !v / sizes.(j)
                done;
                Array.concat
                  [
                    Array.sub idx 0 dim;
                    out;
                    Array.sub idx (dim + 1) (Array.length idx - dim - 1);
                  ]
            | Unfold { dim; tile = _; stride } ->
                let v = (idx.(dim) * stride) + idx.(dim + 1) in
                if v >= shape_before.(dim) then raise Exit;
                Array.concat
                  [
                    Array.sub idx 0 dim;
                    [| v |];
                    Array.sub idx (dim + 2) (Array.length idx - dim - 2);
                  ]
            | Pad { dim; lo; hi = _ } ->
                let v = idx.(dim) - lo in
                if v < 0 || v >= shape_before.(dim) then raise Exit;
                let idx' = Array.copy idx in
                idx'.(dim) <- v;
                idx')
       done
     with Exit -> ok := false);
    if !ok then Some !cur else None

(* [f off loff] for every physical offset [off] that has a logical source,
   at logical offset [loff]. *)
let iter_sources t f =
  let phys = physical_shape t in
  let back = concrete_logical_of_physical t in
  let lstrides = Shape.strides t.logical in
  for off = 0 to Shape.num_elements phys - 1 do
    match back (Shape.index_of_offset phys off) with
    | None -> () (* padding / overrun *)
    | Some lidx ->
        let loff = ref 0 in
        Array.iteri (fun i x -> loff := !loff + (x * lstrides.(i))) lidx;
        f off !loff
  done

let num_physical_elements t = Shape.num_elements (physical_shape t)

let pack t (src : float array) : float array =
  if Array.length src <> Shape.num_elements t.logical then
    err "pack: source size %d <> logical elements %d" (Array.length src)
      (Shape.num_elements t.logical);
  let dst = Array.make (num_physical_elements t) 0.0 in
  iter_sources t (fun off loff -> dst.(off) <- src.(loff));
  dst

let unpack t (src : float array) : float array =
  (* Defined for any layout: every physical element maps back to a logical
     position; duplicated (unfolded) elements agree by construction. *)
  if Array.length src <> num_physical_elements t then
    err "unpack: source size %d <> physical elements %d" (Array.length src)
      (num_physical_elements t);
  let dst = Array.make (Shape.num_elements t.logical) 0.0 in
  iter_sources t (fun off loff -> dst.(loff) <- src.(off));
  dst

let expansion_ratio t =
  float_of_int (num_physical_elements t)
  /. float_of_int (Shape.num_elements t.logical)

(* Replay a primitive sequence onto a (same-shaped) tensor — how layout
   propagation duplicates a source tensor's primitives (Section 4.2). *)
let of_prims shape prims =
  List.fold_left apply (create shape) prims

let replay shape src =
  Shape.validate shape;
  if Shape.equal shape src.logical then
    (* Same logical shape: the source chain is already proven legal, and
       the copy is structurally equal to [src], so it shares the memoized
       physical shape — zero re-validation.  (This is what layout propagation
       does for every consumer of a chosen layout.) *)
    { logical = shape; prims = src.prims }
  else of_prims shape src.prims
