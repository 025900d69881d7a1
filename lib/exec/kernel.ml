(* Compiled macro-kernels: the exec backend's lowering (DESIGN.md §12).

   Index expressions, conditions and access offsets compile through
   the access compiler the simulator uses too ({!Alt_ir.Loopenv}: affine
   offsets are dot products over the loop environment).  On top of it
   this module keeps the value half of the simulator's fast engine with
   the cache model cut away: hoisted affine bases, one per distinct
   access, and the multiply-accumulate specialization — executing for
   wall-clock time instead of feeding a simulator.  Every combine
   function, evaluation order and accumulation chain matches the scalar
   interpreter operation for operation, so kernel outputs are
   bit-identical to a simulator run of the same program, which is what
   the differential suite in test/test_exec.ml pins.

   Differences from the profiler's fast planner:

   - any affine stride qualifies for a macro-kernel (the profiler
     restricts streams to stride 0/1 because the cache span walk needs
     line-crossing structure; values have no such constraint);
   - loads under Pselect are fine (there is no access trace to keep
     deterministic — the taken branch just reads its buffer);
   - the multiply-accumulate scalar-accumulator loop is 4x unrolled.
     Unrolling preserves the single sequential [acc := !acc +. m] chain,
     so float results are unchanged — it only removes loop overhead.

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
module Layout = Alt_tensor.Layout
module Program = Alt_ir.Program
module Sexpr = Alt_ir.Sexpr
module Loopenv = Alt_ir.Loopenv
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

(* Hoisted affine base of one distinct access: refreshed once per
   innermost-loop execution, advanced by [pb_stride * x] inside. *)
type pbase = {
  pb_off : Loopenv.offset;
  pb_stride : int;
  mutable pb_base : int;
}

(* x-indexed evaluator with every load hoisted to a pbase; structure is
   the profiler's [compile_pure], so float results are bit-identical. *)
let rec compile_value vm ctx (pbase_of : Program.access -> pbase)
    (e : Program.pexpr) : int -> float =
  match e with
  | Program.Pconst f -> fun _ -> f
  | Program.Pload a ->
      let pb = pbase_of a in
      let buf = ctx.bufs.(a.Program.slot) in
      fun x -> buf.(pb.pb_base + (pb.pb_stride * x))
  | Program.Pbin (op, a, b) ->
      let fa = compile_value vm ctx pbase_of a
      and fb = compile_value vm ctx pbase_of b in
      let g = Sexpr.apply_binop op in
      fun x -> g (fa x) (fb x)
  | Program.Pun (op, a) ->
      let fa = compile_value vm ctx pbase_of a in
      let g = Sexpr.apply_unop op in
      fun x -> g (fa x)
  | Program.Pselect (c, a, b) ->
      let fc = Loopenv.compile_cond vm c
      and fa = compile_value vm ctx pbase_of a
      and fb = compile_value vm ctx pbase_of b in
      fun x -> if fc ctx.env then fa x else fb x

(* ------------------------------------------------------------------ *)
(* Macro-kernel planner                                               *)
(* ------------------------------------------------------------------ *)

type macro_leaf = {
  ml_step : int -> unit;  (** one iteration at x (multi-leaf interleave) *)
  ml_run : int -> unit;  (** the whole loop of n iterations *)
}

type macro_plan = {
  mp_pbases : pbase array;
  mp_leaves : macro_leaf array;
}

let rec all_leaves = function
  | Program.Store _ | Program.Reduce _ -> true
  | Program.Block l -> l <> [] && List.for_all all_leaves l
  | Program.For _ -> false

(* Try to compile the leaf-only body [b] of innermost loop [l] into a
   macro plan: every access must be affine in the loop variable (any
   stride).  Returns [None] — generic fallback — otherwise. *)
let macro_plan_of vm slots ctx (l : Program.loop) (b : Program.stmt) :
    macro_plan option =
  let exception Fallback in
  try
    let rec flatten = function
      | Program.Block lst -> List.concat_map flatten lst
      | (Program.Store _ | Program.Reduce _) as s -> [ s ]
      | Program.For _ -> raise Fallback
    in
    let stmts = flatten b in
    if stmts = [] then raise Fallback;
    let v = l.Program.v in
    let stride_any a =
      match Loopenv.affine_stride slots a v with
      | Some s -> s
      | None -> raise Fallback
    in
    let vslot = Loopenv.var_slot vm l.Program.v in
    let pbases = ref [] in
    (* one hoisted base per distinct access *)
    let hoist (a : Program.access) =
      match List.assoc_opt a !pbases with
      | Some pb -> pb
      | None ->
          let pb =
            { pb_off = Loopenv.compile_offset vm slots a;
              pb_stride = stride_any a; pb_base = 0 }
          in
          pbases := (a, pb) :: !pbases;
          pb
    in
    (* Whole-loop runner from a per-iteration step; the loop variable's
       env slot tracks x for Pselect conditions. *)
    let generic_run (step : int -> unit) n =
      let env = ctx.env in
      for x = 0 to n - 1 do
        env.(vslot) <- x;
        step x
      done
    in
    let compile_leaf (s : Program.stmt) : macro_leaf =
      match s with
      | Program.Store (a, e) ->
          let fe = compile_value vm ctx hoist e in
          let spb = hoist a in
          let buf = ctx.bufs.(a.Program.slot) in
          let step x = buf.(spb.pb_base + (spb.pb_stride * x)) <- fe x in
          let run =
            match e with
            | Program.Pconst cst ->
                (* tile-init loops: no closure call per element *)
                fun n ->
                  let base = spb.pb_base and stride = spb.pb_stride in
                  if stride = 1 then Array.fill buf base n cst
                  else
                    for x = 0 to n - 1 do
                      buf.(base + (stride * x)) <- cst
                    done
            | _ -> generic_run step
          in
          { ml_step = step; ml_run = run }
      | Program.Reduce (a, r, e) ->
          let apb = hoist a in
          let astride = apb.pb_stride in
          let buf = ctx.bufs.(a.Program.slot) in
          let step, run =
            match e with
            | Program.Pbin (Sexpr.Bmul, Program.Pload la, Program.Pload lb)
              when r = Program.Rsum ->
                (* the multiply-accumulate kernel every conv/matmul
                   reduction lowers to: tight array loops with
                   loop-invariant operands hoisted when they cannot
                   alias the accumulator, 4x unrolled in the scalar-
                   accumulator case (single sequential chain preserved) *)
                let pba = hoist la and pbb = hoist lb in
                let ba = ctx.bufs.(la.Program.slot)
                and bb = ctx.bufs.(lb.Program.slot) in
                let sa = pba.pb_stride and sb = pbb.pb_stride in
                let alias_a = la.Program.slot = a.Program.slot
                and alias_b = lb.Program.slot = a.Program.slot in
                let step x =
                  let o = apb.pb_base + (astride * x) in
                  buf.(o) <-
                    buf.(o)
                    +. (ba.(pba.pb_base + (sa * x))
                       *. bb.(pbb.pb_base + (sb * x)))
                in
                let run n =
                  let oa = pba.pb_base
                  and ob = pbb.pb_base
                  and oc = apb.pb_base in
                  if astride = 0 && (not alias_a) && not alias_b then begin
                    let acc = ref buf.(oc) in
                    let n4 = n - (n land 3) in
                    (if sa = 0 then begin
                       let va = ba.(oa) in
                       let x = ref 0 in
                       while !x < n4 do
                         let o = ob + (sb * !x) in
                         acc := !acc +. (va *. bb.(o));
                         acc := !acc +. (va *. bb.(o + sb));
                         acc := !acc +. (va *. bb.(o + (2 * sb)));
                         acc := !acc +. (va *. bb.(o + (3 * sb)));
                         x := !x + 4
                       done;
                       for x = n4 to n - 1 do
                         acc := !acc +. (va *. bb.(ob + (sb * x)))
                       done
                     end
                     else if sb = 0 then begin
                       let vb = bb.(ob) in
                       let x = ref 0 in
                       while !x < n4 do
                         let o = oa + (sa * !x) in
                         acc := !acc +. (ba.(o) *. vb);
                         acc := !acc +. (ba.(o + sa) *. vb);
                         acc := !acc +. (ba.(o + (2 * sa)) *. vb);
                         acc := !acc +. (ba.(o + (3 * sa)) *. vb);
                         x := !x + 4
                       done;
                       for x = n4 to n - 1 do
                         acc := !acc +. (ba.(oa + (sa * x)) *. vb)
                       done
                     end
                     else begin
                       let x = ref 0 in
                       while !x < n4 do
                         let xa = oa + (sa * !x) and xb = ob + (sb * !x) in
                         acc := !acc +. (ba.(xa) *. bb.(xb));
                         acc := !acc +. (ba.(xa + sa) *. bb.(xb + sb));
                         acc := !acc +. (ba.(xa + (2 * sa)) *. bb.(xb + (2 * sb)));
                         acc := !acc +. (ba.(xa + (3 * sa)) *. bb.(xb + (3 * sb)));
                         x := !x + 4
                       done;
                       for x = n4 to n - 1 do
                         acc := !acc +. (ba.(oa + (sa * x)) *. bb.(ob + (sb * x)))
                       done
                     end);
                    buf.(oc) <- !acc
                  end
                  else if sa = 0 && not alias_a then begin
                    let va = ba.(oa) in
                    for x = 0 to n - 1 do
                      let o = oc + (astride * x) in
                      buf.(o) <- buf.(o) +. (va *. bb.(ob + (sb * x)))
                    done
                  end
                  else if sb = 0 && not alias_b then begin
                    let vb = bb.(ob) in
                    for x = 0 to n - 1 do
                      let o = oc + (astride * x) in
                      buf.(o) <- buf.(o) +. (ba.(oa + (sa * x)) *. vb)
                    done
                  end
                  else
                    for x = 0 to n - 1 do
                      let o = oc + (astride * x) in
                      buf.(o) <-
                        buf.(o)
                        +. (ba.(oa + (sa * x)) *. bb.(ob + (sb * x)))
                    done
                in
                (step, run)
            | _ ->
                let fe = compile_value vm ctx hoist e in
                let combine =
                  match r with
                  | Program.Rsum -> Float.add
                  | Program.Rmax -> Float.max
                in
                let step x =
                  let v = fe x in
                  let o = apb.pb_base + (astride * x) in
                  buf.(o) <- combine buf.(o) v
                in
                (step, generic_run step)
          in
          { ml_step = step; ml_run = run }
      | Program.For _ | Program.Block _ -> raise Fallback
    in
    let leaves = Array.of_list (List.map compile_leaf stmts) in
    Some
      { mp_pbases = Array.of_list (List.rev_map snd !pbases);
        mp_leaves = leaves }
  with Fallback -> None

(* One execution of a macro group: refresh hoisted bases at x = 0, then
   run leaves.  Multi-leaf blocks interleave per iteration, since a later
   leaf may read what an earlier one wrote at the same iteration. *)
let make_macro_runner ctx st (plan : macro_plan) vslot n =
  let pbases = plan.mp_pbases and leaves = plan.mp_leaves in
  let n_pbases = Array.length pbases and n_leaves = Array.length leaves in
  fun () ->
    st.macro_runs <- st.macro_runs + 1;
    let env = ctx.env in
    env.(vslot) <- 0;
    for i = 0 to n_pbases - 1 do
      let pb = pbases.(i) in
      pb.pb_base <- Loopenv.eval pb.pb_off env
    done;
    if n_leaves = 1 then leaves.(0).ml_run n
    else
      for x = 0 to n - 1 do
        env.(vslot) <- x;
        for i = 0 to n_leaves - 1 do
          leaves.(i).ml_step x
        done
      done

(* ------------------------------------------------------------------ *)
(* Statement compilation and entry point                              *)
(* ------------------------------------------------------------------ *)

let compile_stmts ctx st vm (slots : Program.slot array)
    (body : Program.stmt) =
  let rec comp (s : Program.stmt) : unit -> unit =
    match s with
    | Program.For (l, b) -> (
        let vslot = Loopenv.var_slot vm l.Program.v in
        let n = l.Program.extent in
        let plan =
          if all_leaves b then macro_plan_of vm slots ctx l b else None
        in
        match plan with
        | Some plan ->
            st.macro_groups <- st.macro_groups + 1;
            make_macro_runner ctx st plan vslot n
        | None ->
            if all_leaves b then begin
              st.generic_groups <- st.generic_groups + 1;
              let fb = comp b in
              fun () ->
                st.generic_runs <- st.generic_runs + 1;
                let env = ctx.env in
                for x = 0 to n - 1 do
                  env.(vslot) <- x;
                  fb ()
                done
            end
            else
              let fb = comp b in
              fun () ->
                let env = ctx.env in
                for x = 0 to n - 1 do
                  env.(vslot) <- x;
                  fb ()
                done)
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
