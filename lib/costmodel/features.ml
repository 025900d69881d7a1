(* Static program features for the learned cost model (Section 5.2.3).

   Mirrors the role of Ansor's feature extraction: loop structure, access
   locality, footprints relative to the cache hierarchy, vectorization and
   parallelism — everything the tuner needs to rank candidates without
   running them.  All features are cheap functions of the lowered program;
   none require simulation. *)

module Layout = Alt_tensor.Layout
module Program = Alt_ir.Program
module Loopenv = Alt_ir.Loopenv
module Machine = Alt_machine.Machine
module Cache = Alt_machine.Cache

let dim = 24

let log1p x = Float.log (1.0 +. x)

(* Approximate footprint (bytes) an access sweeps over the given loops:
   4 bytes times the extent of every loop the access depends on. *)
let footprint slots (a : Program.access) (loops : Program.loop list) =
  let b = ref 4.0 in
  List.iter
    (fun (l : Program.loop) ->
      match Loopenv.affine_stride slots a l.Program.v with
      | Some 0 -> ()
      | Some _ | None -> b := !b *. float_of_int l.Program.extent)
    loops;
  !b

let extract (machine : Machine.t) (p : Program.t) : float array =
  let slots = p.Program.slots in
  let loops = Program.loops p in
  let reads, writes = Program.accesses p in
  let points = float_of_int (Program.points p) in
  let flops = float_of_int p.Program.flops in
  (* innermost loop (deepest in the first chain) *)
  let rec innermost cur = function
    | Program.For (l, b) -> innermost (Some l) b
    | Program.Block (x :: _) -> innermost cur x
    | _ -> cur
  in
  let inner = innermost None p.Program.body in
  let inner_contig, inner_strided, inner_invariant =
    match inner with
    | None -> (0.0, 0.0, 0.0)
    | Some l ->
        let c = ref 0 and s = ref 0 and i = ref 0 in
        List.iter
          (fun a ->
            match Loopenv.affine_stride slots a l.Program.v with
            | Some 0 -> incr i
            | Some 1 -> incr c
            | Some _ | None -> incr s)
          (reads @ writes);
        let n = float_of_int (max 1 (List.length reads + List.length writes)) in
        (float_of_int !c /. n, float_of_int !s /. n, float_of_int !i /. n)
  in
  let vec_loops =
    List.filter (fun (l : Program.loop) -> l.Program.kind = Program.Vectorized) loops
  in
  let vec_extent =
    List.fold_left (fun a (l : Program.loop) -> a * l.Program.extent) 1 vec_loops
  in
  let par_extent =
    List.fold_left
      (fun a (l : Program.loop) ->
        if l.Program.kind = Program.Parallel then a * l.Program.extent else a)
      1 loops
  in
  let unrolled =
    List.exists (fun (l : Program.loop) -> l.Program.kind = Program.Unrolled) loops
  in
  (* total storage touched *)
  let total_bytes =
    Array.fold_left
      (fun acc (s : Program.slot) ->
        acc + (4 * Layout.num_physical_elements s.Program.layout))
      0 slots
  in
  let expansion =
    Array.fold_left
      (fun acc (s : Program.slot) ->
        Float.max acc (Layout.expansion_ratio s.Program.layout))
      1.0 slots
  in
  (* inner-tile footprint: accesses swept by the innermost 3 loops *)
  let inner_band =
    let rec chain acc = function
      | Program.For (l, b) -> chain (l :: acc) b
      | Program.Block (x :: _) -> chain acc x
      | _ -> acc
    in
    let all = chain [] p.Program.body in
    List.filteri (fun i _ -> i < 3) all
  in
  let tile_bytes =
    List.fold_left
      (fun acc a -> acc +. footprint slots a inner_band)
      0.0 (reads @ writes)
  in
  let l1 = float_of_int machine.Machine.l1.Cache.size_bytes in
  let l2 = float_of_int machine.Machine.l2.Cache.size_bytes in
  let n_loads = float_of_int (List.length reads) in
  let n_stores = float_of_int (List.length writes) in
  let depth = float_of_int (List.length loops) in
  let arith_intensity = flops /. Float.max 1.0 (float_of_int total_bytes) in
  [|
    log1p flops;
    log1p points;
    depth;
    n_loads;
    n_stores;
    inner_contig;
    inner_strided;
    inner_invariant;
    (if vec_loops <> [] then 1.0 else 0.0);
    log1p (float_of_int vec_extent);
    float_of_int vec_extent /. float_of_int machine.Machine.lanes;
    log1p (float_of_int par_extent);
    Float.min 1.0 (float_of_int par_extent /. float_of_int machine.Machine.cores);
    (if unrolled then 1.0 else 0.0);
    log1p (float_of_int total_bytes);
    float_of_int total_bytes /. l2;
    log1p tile_bytes;
    tile_bytes /. l1;
    (if tile_bytes <= l1 then 1.0 else 0.0);
    (if tile_bytes <= l2 then 1.0 else 0.0);
    expansion;
    arith_intensity;
    log1p (flops /. Float.max 1.0 points);
    float_of_int (Array.length slots);
  |]
