(* Oracles for the concrete layout maps (DESIGN.md §16).

   [relation_of] composes a layout's index relation one primitive at a
   time, canonicalizing after each step.  The relation-backed
   [pack]/[unpack]/[eval_fwd]/[phys_index] evaluate that relation, and
   [Reference] keeps the seed per-primitive forward walks.  The
   differential suites pin [Layout]'s primitive walks to both. *)

(* The relation step of one primitive, given the shape it applies to
   ([fuse] needs the extents it collapses). *)
let prim_relation (s : Shape.t) = function
  | Layout.Split { dim; factors } ->
      Relation.decode s ~dim ~radices:(Array.of_list factors)
  | Reorder perm -> Relation.permute s perm
  | Fuse { dim; count } -> Relation.encode s ~dim ~radices:(Array.sub s dim count)
  | Unfold { dim; tile; stride } -> Relation.window s ~dim ~tile ~stride
  | Pad { dim; lo; hi } -> Relation.shift s ~dim ~lo ~hi

let relation_of l =
  List.fold_left
    (fun r p -> Relation.compose r (prim_relation (Relation.range r) p))
    (Relation.id (Layout.logical_shape l))
    (Layout.prims l)

let pack l (src : float array) : float array =
  let r = relation_of l in
  let back = Relation.compile_bwd r in
  Array.init (Relation.num_range_elements r) (fun off ->
      match back (Shape.index_of_offset (Relation.range r) off) with
      | None -> 0.0 (* padding / overrun *)
      | Some x -> src.(Shape.offset_of_index (Relation.domain r) x))

let unpack l (src : float array) : float array =
  let r = relation_of l in
  let back = Relation.compile_bwd r in
  let dst = Array.make (Shape.num_elements (Relation.domain r)) 0.0 in
  Array.iteri
    (fun off v ->
      match back (Shape.index_of_offset (Relation.range r) off) with
      | None -> ()
      | Some x -> dst.(Shape.offset_of_index (Relation.domain r) x) <- v)
    src;
  dst

(* Concrete logical index -> physical index; raises
   [Relation.Relation_error] on unfold (one-to-many). *)
let eval_fwd l = Relation.compile_fwd (relation_of l)

let phys_index l =
  let r = relation_of l in
  let fwd = Relation.compile_fwd r in
  fun x -> Shape.offset_of_index (Relation.range r) (fwd x)

(* The seed implementations, verbatim apart from shape deduction, which
   skips the seed's validation: a [Layout.t] is legal by construction. *)
module Reference = struct
  let shape_after (s : Shape.t) = function
    | Layout.Split { dim; factors } ->
        Array.concat
          [
            Array.sub s 0 dim;
            Array.of_list factors;
            Array.sub s (dim + 1) (Shape.rank s - dim - 1);
          ]
    | Reorder perm -> Array.map (fun p -> s.(p)) perm
    | Fuse { dim; count } ->
        Array.concat
          [
            Array.sub s 0 dim;
            [| Shape.prod_range s dim (dim + count - 1) |];
            Array.sub s (dim + count) (Shape.rank s - dim - count);
          ]
    | Unfold { dim; tile; stride } ->
        Array.concat
          [
            Array.sub s 0 dim;
            [| Shape.cdiv (s.(dim) - tile) stride + 1; tile |];
            Array.sub s (dim + 1) (Shape.rank s - dim - 1);
          ]
    | Pad { dim; lo; hi } ->
        let s' = Array.copy s in
        s'.(dim) <- s.(dim) + lo + hi;
        s'

  let physical_shape l =
    List.fold_left shape_after (Layout.logical_shape l) (Layout.prims l)

  (* Shapes before each primitive, plus the final shape. *)
  let shape_trace l =
    let rec go s = function
      | [] -> [ s ]
      | p :: tl -> s :: go (shape_after s p) tl
    in
    go (Layout.logical_shape l) (Layout.prims l)

  (* Concrete logical index -> physical index; rejects unfold
     (one-to-many). *)
  let eval_fwd l : int array -> int array =
    let prims = Layout.prims l in
    if List.exists (function Layout.Unfold _ -> true | _ -> false) prims then
      invalid_arg "eval_fwd: layout has unfold (one-to-many mapping)";
    let trace = shape_trace l in
    fun lidx ->
      let rec go idx shapes prims =
        match (shapes, prims) with
        | _, [] -> idx
        | shape :: shapes', p :: prims' ->
            let idx' =
              match p with
              | Layout.Split { dim; factors } ->
                  let sizes = Array.of_list factors in
                  let m = Array.length sizes in
                  let out = Array.make m 0 in
                  let v = ref idx.(dim) in
                  for j = m - 1 downto 0 do
                    out.(j) <- !v mod sizes.(j);
                    v := !v / sizes.(j)
                  done;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      out;
                      Array.sub idx (dim + 1) (Array.length idx - dim - 1);
                    ]
              | Reorder perm -> Array.map (fun pdim -> idx.(pdim)) perm
              | Fuse { dim; count } ->
                  let sizes = Array.sub shape dim count in
                  let v = ref 0 in
                  for j = 0 to count - 1 do
                    v := (!v * sizes.(j)) + idx.(dim + j)
                  done;
                  Array.concat
                    [
                      Array.sub idx 0 dim;
                      [| !v |];
                      Array.sub idx (dim + count) (Array.length idx - dim - count);
                    ]
              | Pad { dim; lo; hi = _ } ->
                  let idx' = Array.copy idx in
                  idx'.(dim) <- idx.(dim) + lo;
                  idx'
              | Unfold _ -> assert false
            in
            go idx' shapes' prims'
        | [], _ :: _ -> assert false
      in
      go (Array.copy lidx) trace prims

  let phys_index l =
    let fwd = eval_fwd l in
    let phys = physical_shape l in
    fun lidx -> Shape.offset_of_index phys (fwd lidx)
end
