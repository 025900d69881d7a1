(* Compiled macro-kernels: the exec backend's lowering (DESIGN.md §12).

   Index expressions, conditions and access offsets compile through
   the access compiler the simulator uses too ({!Alt_ir.Loopenv}: affine
   offsets are dot products over the loop environment), and the values
   of a leaf group — an innermost loop of Store/Reduce statements whose
   accesses are affine in its variable — through the leaf compiler the
   simulator's fast engine runs too ([Loopenv.leaf_group]: hoisted
   bases and the multiply-accumulate specialization).  Each group runs
   with the perfect chain of loops above it whose variables every
   access is affine in, on the shared chain walker ([Loopenv.chain]).
   Every combine function, evaluation order and accumulation chain
   matches the scalar interpreter, so kernel outputs are bit-identical
   to a simulator run of the same program (test/test_exec.ml pins it).
   The kernels take every group the leaf compiler accepts; the
   simulator declines loads under a select and several Reduce leaves.

   Parallel driver (DESIGN.md §15): with [domains > 1] the leading
   [Parallel] loops of the nest are flattened into one iteration space,
   chunked into deterministic contiguous blocks, and the blocks run on a
   resident {!Alt_parallel.Team}.  Each block executes an independently
   compiled copy of the inner nest (own loop environment, own hoisted
   bases), so blocks share nothing but the buffers; a compile-time
   legality check proves every buffer written in the nest is touched at
   offsets disjoint across distinct parallel indices, which is what
   keeps reduction accumulation chains sequential per output element and
   the outputs bit-identical to a serial run.  Nests that fail the check
   (or have no parallel band) fall back to the serial path and count a
   [par_fallbacks] tick, so silent serialization is observable. *)

module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr
module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Program = Alt_ir.Program
module Sexpr = Alt_ir.Sexpr
module Loopenv = Alt_ir.Loopenv
module Lower = Alt_ir.Lower
module Team = Alt_parallel.Team

type stats = {
  mutable macro_groups : int;
  mutable generic_groups : int;
  mutable macro_runs : int;
  mutable generic_runs : int;
  mutable par_chunks : int;
  mutable par_fallbacks : int;
}

type t = {
  prog : Program.t;
  bufs : float array array;
  run : unit -> unit;
  stats : stats;
  par_ms : float array;
}

(* ------------------------------------------------------------------ *)
(* Expression compilation                                             *)
(* ------------------------------------------------------------------ *)

type ctx = { mutable env : int array; bufs : float array array }

(* Plain evaluator over the loop environment; used outside macro groups.
   Mirrors the profiler's [compile_pexpr] minus the counter effects. *)
let rec compile_plain vm slots ctx (e : Program.pexpr) : int array -> float =
  match e with
  | Program.Pconst f -> fun _ -> f
  | Program.Pload a ->
      let off = Loopenv.compile_offset vm slots a in
      let buf = ctx.bufs.(a.Program.slot) in
      fun env -> buf.(Loopenv.eval off env)
  | Program.Pbin (op, a, b) ->
      let fa = compile_plain vm slots ctx a
      and fb = compile_plain vm slots ctx b in
      let g = Sexpr.apply_binop op in
      fun env -> g (fa env) (fb env)
  | Program.Pun (op, a) ->
      let fa = compile_plain vm slots ctx a in
      let g = Sexpr.apply_unop op in
      fun env -> g (fa env)
  | Program.Pselect (c, a, b) ->
      let fc = Loopenv.compile_cond vm c
      and fa = compile_plain vm slots ctx a
      and fb = compile_plain vm slots ctx b in
      fun env -> if fc env then fa env else fb env

let rec all_leaves = function
  | Program.Store _ | Program.Reduce _ -> true
  | Program.Block l -> l <> [] && List.for_all all_leaves l
  | Program.For _ -> false

let rec leaves = function
  | Program.Block l -> List.concat_map leaves l
  | s -> [ s ]

(* ------------------------------------------------------------------ *)
(* Statement compilation and entry point                              *)
(* ------------------------------------------------------------------ *)

(* The perfect chain of loops from a statement down: the loops innermost
   first, and the body of the innermost one. *)
let rec perfect_chain acc = function
  | Program.For (l, b) -> perfect_chain (l :: acc) b
  | b -> (acc, b)

let compile_stmts ctx st vm (slots : Program.slot array)
    (body : Program.stmt) =
  let loop (l : Program.loop) (fb : unit -> unit) =
    let vslot = Loopenv.var_slot vm l.Program.v and n = l.Program.extent in
    fun () ->
      let env = ctx.env in
      for x = 0 to n - 1 do
        env.(vslot) <- x;
        fb ()
      done
  in
  let rec comp (s : Program.stmt) : unit -> unit =
    match s with
    | Program.For _ -> (
        match perfect_chain [] s with
        | l :: outer, b when all_leaves b ->
            (* a leaf group: its values are compiled once, and the
               longest run of enclosing loops every access is affine in
               joins its chain *)
            let group, rest =
              match
                Loopenv.leaf_group vm slots ctx.bufs l.Program.v (leaves b)
              with
              | Some g ->
                  st.macro_groups <- st.macro_groups + 1;
                  let rec climb levels = function
                    | o :: os as rest -> (
                        match
                          Loopenv.level_of vm g.Loopenv.lg_bases o.Program.v
                            o.Program.extent
                        with
                        | Some lv -> climb (lv :: levels) os
                        | None -> (levels, rest))
                    | [] -> (levels, [])
                  in
                  let levels, rest = climb [] outer in
                  let levels = Array.of_list levels in
                  let run =
                    Loopenv.chain
                      ~vslot:(Loopenv.var_slot vm l.Program.v)
                      g.Loopenv.lg_bases levels
                      (g.Loopenv.lg_inner l.Program.extent)
                  in
                  let runs = Loopenv.chain_points levels in
                  ( (fun () ->
                      st.macro_runs <- st.macro_runs + runs;
                      run ctx.env),
                    rest )
              | None ->
                  st.generic_groups <- st.generic_groups + 1;
                  let fl = loop l (comp b) in
                  ( (fun () ->
                      st.generic_runs <- st.generic_runs + 1;
                      fl ()),
                    outer )
            in
            List.fold_left (fun f o -> loop o f) group rest
        | loops, b -> List.fold_left (fun f o -> loop o f) (comp b) loops)
    | Program.Block lst ->
        let fs = List.map comp lst in
        fun () -> List.iter (fun f -> f ()) fs
    | Program.Store (a, e) ->
        let off = Loopenv.compile_offset vm slots a in
        let fe = compile_plain vm slots ctx e in
        let buf = ctx.bufs.(a.Program.slot) in
        fun () ->
          let v = fe ctx.env in
          let o = Loopenv.eval off ctx.env in
          buf.(o) <- v
    | Program.Reduce (a, r, e) ->
        let off = Loopenv.compile_offset vm slots a in
        let fe = compile_plain vm slots ctx e in
        let buf = ctx.bufs.(a.Program.slot) in
        let combine =
          match r with
          | Program.Rsum -> Float.add
          | Program.Rmax -> Float.max
        in
        fun () ->
          let v = fe ctx.env in
          let o = Loopenv.eval off ctx.env in
          buf.(o) <- combine buf.(o) v
  in
  comp body

(* ------------------------------------------------------------------ *)
(* Parallel driver (DESIGN.md §15)                                    *)
(* ------------------------------------------------------------------ *)

(* Leading [Parallel] loops of the nest — the band lower.ml puts at the
   root when [Schedule.parallel > 0]. *)
let rec peel_parallel acc = function
  | Program.For (l, b) when l.Program.kind = Program.Parallel ->
      peel_parallel (l :: acc) b
  | s -> (List.rev acc, s)

(* Disjointness legality: the peeled band may be chunked across domains
   iff for every buffer written anywhere in the nest, all accesses to it
   (reads and writes alike) land at offsets disjoint across distinct
   parallel index tuples.  Sufficient condition, per written slot:

   - every access offset is affine in every loop variable (under the
     loop bounds, which discharges the div/mod pairs tiling and fusing
     introduce), and all accesses to the slot share one profile: the
     same (variable -> aggregate element stride) map and the same
     constant-offset range;
   - the offset map is mixed-radix injective: listing the dimensions
     (|s_v|, extent_v) of every variable with nonzero stride sorted by
     |s| ascending, each must clear the reach of everything finer,
       |s_j| > W + sum_{i<j} |s_i| * (extent_i - 1)
     where W is the width of the constant-offset range (0 for plain
     affine accesses).  Injectivity over all variables jointly implies
     distinct parallel tuples touch disjoint footprints — the slices
     cannot meet.  This admits permuted/transposed/tiled layouts (their
     offset maps are exactly compact mixed radix);
   - every parallel variable of extent > 1 must carry a nonzero stride:
     a parallel-invariant write (a scalar reduction over the band, or a
     temp not indexed by it) would be carried across chunks, so it is
     rejected.  Sequential variables with stride 0 are fine — that is
     the per-element reduction chain, which stays inside one chunk.

   Reads of never-written slots are unconstrained (concurrent reads are
   fine), which is what admits pad/unfold input views. *)
let parallel_legal (p : Program.t) (par_loops : Program.loop list) : bool =
  let slots = p.Program.slots in
  let all_loops = ref [] in
  Program.iter_stmt
    (function
      | Program.For (l, _) -> all_loops := l :: !all_loops
      | _ -> ())
    p.Program.body;
  let all_loops = List.rev !all_loops in
  let extents : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (l : Program.loop) ->
      Hashtbl.replace extents (Var.id l.Program.v) l.Program.extent)
    all_loops;
  let bounds v =
    match Hashtbl.find_opt extents (Var.id v) with
    | Some e -> Some (0, e - 1)
    | None -> None
  in
  let written : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  Program.iter_stmt
    (function
      | Program.Store (a, _) | Program.Reduce (a, _, _) ->
          Hashtbl.replace written a.Program.slot ()
      | _ -> ())
    p.Program.body;
  let exception Illegal in
  (* Profile of one access: (var id -> aggregate element stride) sorted
     assoc + constant-offset range. *)
  let profile (a : Program.access) : (int * int) list * int * int =
    let strides = Layout.phys_strides slots.(a.Program.slot).Program.layout in
    let tbl : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let lo = ref 0 and hi = ref 0 in
    Array.iteri
      (fun i e ->
        let s = strides.(i) in
        let resid = ref e in
        List.iter
          (fun (l : Program.loop) ->
            match Ixexpr.coeff_of ~bounds !resid l.Program.v with
            | None -> raise Illegal
            | Some 0 -> ()
            | Some c -> (
                (match Ixexpr.drop_var ~bounds !resid l.Program.v with
                | None -> raise Illegal
                | Some r -> resid := r);
                let vid = Var.id l.Program.v in
                let prev =
                  match Hashtbl.find_opt tbl vid with Some x -> x | None -> 0
                in
                Hashtbl.replace tbl vid (prev + (c * s))))
          all_loops;
        match Ixexpr.range ~bounds !resid with
        | None -> raise Illegal
        | Some (rlo, rhi) ->
            (* physical strides are nonnegative *)
            lo := !lo + (rlo * s);
            hi := !hi + (rhi * s))
      a.Program.idx;
    let entries =
      Hashtbl.fold (fun vid s acc -> (vid, s) :: acc) tbl []
      |> List.filter (fun (_, s) -> s <> 0)
      |> List.sort compare
    in
    (entries, !lo, !hi)
  in
  (* Group every access to a written slot. *)
  let by_slot : (int, Program.access list ref) Hashtbl.t = Hashtbl.create 4 in
  let add (a : Program.access) =
    if Hashtbl.mem written a.Program.slot then
      match Hashtbl.find_opt by_slot a.Program.slot with
      | Some r -> r := a :: !r
      | None -> Hashtbl.replace by_slot a.Program.slot (ref [ a ])
  in
  Program.iter_stmt
    (function
      | Program.Store (a, e) ->
          add a;
          List.iter add (Program.expr_accesses e)
      | Program.Reduce (a, _, e) ->
          add a;
          List.iter add (Program.expr_accesses e)
      | _ -> ())
    p.Program.body;
  let slot_ok _slot (accs : Program.access list ref) =
    match !accs with
    | [] -> ()
    | a0 :: rest ->
        let prof0 = profile a0 in
        List.iter (fun a -> if profile a <> prof0 then raise Illegal) rest;
        let entries, lo, hi = prof0 in
        (* every extent > 1 parallel var must appear with nonzero stride *)
        List.iter
          (fun (l : Program.loop) ->
            if
              l.Program.extent > 1
              && not (List.mem_assoc (Var.id l.Program.v) entries)
            then raise Illegal)
          par_loops;
        let dims =
          List.filter_map
            (fun (vid, s) ->
              match Hashtbl.find_opt extents vid with
              | Some e when e > 1 -> Some (abs s, e)
              | _ -> None)
            entries
          |> List.sort compare
        in
        let reach = ref (hi - lo) in
        List.iter
          (fun (s, e) ->
            if s <= !reach then raise Illegal;
            reach := !reach + (s * (e - 1)))
          dims
  in
  try
    Hashtbl.iter slot_ok by_slot;
    true
  with Illegal -> false

let compile ?(domains = 1) (p : Program.t) ~(bufs : float array array) : t =
  if Array.length bufs <> Array.length p.Program.slots then
    invalid_arg "Kernel.compile: buffer count mismatch";
  Array.iteri
    (fun i b ->
      let want =
        Layout.num_physical_elements p.Program.slots.(i).Program.layout
      in
      if Array.length b <> want then
        invalid_arg
          (Fmt.str "Kernel.compile: slot %d (%s) has %d elements, want %d" i
             p.Program.slots.(i).Program.sname (Array.length b) want))
    bufs;
  if domains < 1 then invalid_arg "Kernel.compile: domains must be >= 1";
  let ctx = { env = [||]; bufs } in
  let st =
    {
      macro_groups = 0;
      generic_groups = 0;
      macro_runs = 0;
      generic_runs = 0;
      par_chunks = 0;
      par_fallbacks = 0;
    }
  in
  let vm = Loopenv.create () in
  let serial = compile_stmts ctx st vm p.Program.slots p.Program.body in
  ctx.env <- Loopenv.alloc_env vm;
  let par_loops, inner = peel_parallel [] p.Program.body in
  if domains = 1 then { prog = p; bufs; run = serial; stats = st; par_ms = [||] }
  else if par_loops = [] || not (parallel_legal p par_loops) then begin
    (* requested parallel execution but cannot engage: loud, not silent *)
    st.par_fallbacks <- 1;
    { prog = p; bufs; run = serial; stats = st; par_ms = [||] }
  end
  else begin
    let extents =
      Array.of_list (List.map (fun l -> l.Program.extent) par_loops)
    in
    let k = Array.length extents in
    let total = Array.fold_left ( * ) 1 extents in
    let nchunks = min domains (max 1 total) in
    let team = Team.get ~domains in
    (* One compiled copy of the inner nest per chunk — own env, own vm,
       own hoisted bases, own run counters — so chunks share nothing but
       the buffers.  Copy selection is by chunk index, not by worker
       domain, so counters and outputs are scheduling-independent. *)
    let copies =
      Array.init nchunks (fun _ ->
          let cctx = { env = [||]; bufs } in
          let cst =
            {
              macro_groups = 0;
              generic_groups = 0;
              macro_runs = 0;
              generic_runs = 0;
              par_chunks = 0;
              par_fallbacks = 0;
            }
          in
          let cvm = Loopenv.create () in
          let body = compile_stmts cctx cst cvm p.Program.slots inner in
          let pslots =
            Array.of_list
              (List.map (fun l -> Loopenv.var_slot cvm l.Program.v) par_loops)
          in
          cctx.env <- Loopenv.alloc_env cvm;
          (cctx, cst, body, pslots))
    in
    let par_ms = Array.make nchunks 0.0 in
    let run_chunk c =
      let cctx, _, body, pslots = copies.(c) in
      let lo = c * total / nchunks and hi = (c + 1) * total / nchunks in
      let t0 = Unix.gettimeofday () in
      for pt = lo to hi - 1 do
        (* row-major decode of the flat parallel point into the band;
           ascending flat order = the serial nest's visit order *)
        let rem = ref pt in
        let env = cctx.env in
        for d = k - 1 downto 0 do
          env.(pslots.(d)) <- !rem mod extents.(d);
          rem := !rem / extents.(d)
        done;
        body ()
      done;
      par_ms.(c) <- (Unix.gettimeofday () -. t0) *. 1e3
    in
    let run () =
      Team.parallel_for team ~chunks:nchunks run_chunk;
      st.par_chunks <- st.par_chunks + nchunks;
      Array.iter
        (fun ((_, cst, _, _) : ctx * stats * (unit -> unit) * int array) ->
          st.macro_runs <- st.macro_runs + cst.macro_runs;
          st.generic_runs <- st.generic_runs + cst.generic_runs;
          cst.macro_runs <- 0;
          cst.generic_runs <- 0)
        copies
    in
    { prog = p; bufs; run; stats = st; par_ms }
  end

let reset_non_inputs (k : t) =
  Array.iteri
    (fun i (s : Program.slot) ->
      if s.Program.role <> Program.Input then
        Array.fill k.bufs.(i) 0 (Array.length k.bufs.(i)) 0.0)
    k.prog.Program.slots

(* A pack is the conversion operator of Fig. 5a from the logical
   row-major layout into [l], compiled and run once — the same kernels
   that run a graph's conversion stages.  The nest covers the whole
   physical space and stores a zero at every hole, so every element is
   written; [Layout.pack], the primitive walk, is the reference it is
   pinned to. *)
let pack (l : Layout.t) (src : float array) : float array =
  let shape = Layout.logical_shape l in
  let n = Shape.num_elements shape in
  if Array.length src <> n then
    raise
      (Layout.Layout_error
         (Fmt.str "pack: source size %d <> logical elements %d"
            (Array.length src) n));
  let prog = Lower.conversion ~src:(Layout.create shape) ~dst:l () in
  let dst = Array.make (Layout.num_physical_elements l) 0.0 in
  (compile prog ~bufs:[| src; dst |]).run ();
  dst
