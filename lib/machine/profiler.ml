(* Trace-driven program profiler.

   Interprets a lowered program against concrete buffers while feeding every
   memory access through the two-level cache model and counting issued
   instructions.  This is the stand-in for the paper's on-device
   measurement: one [run] = one "hardware measurement" of the auto-tuner.

   Modelling notes:
   - Vectorization: statements under a [Vectorized] loop cost 1/lanes
     instructions when their accesses are contiguous (stride 0 or 1 in the
     vectorized variable); non-contiguous accesses cost a full gather.
     All per-element cache effects are still simulated.
   - Register accumulation: a [Reduce] whose accumulator tile fits in
     registers is charged memory traffic once every K iterations, where K
     is the extent product of the enclosing loops the accumulator is
     invariant in (bounded by the register budget).  This models the
     register blocking every real tensor compiler performs; without it,
     reduction order would be invisible to the model.
   - Parallelism: counters are accumulated serially; the latency formula
     divides by the effective speedup of loops marked [Parallel].
   - Sampling: when the iteration space exceeds [max_points], outermost
     loops are truncated proportionally and the counters are rescaled
     (documented in DESIGN.md §5); [sampled] is set in the result and
     numerical outputs are then partial.

   Access offsets compile through the access compiler shared with the
   exec kernels (Alt_ir.Loopenv): an affine offset is a dot product over
   the loop environment, and only div/mod/min/max residues keep a
   closure.  Every access site reaches the L1 model through a
   [Cache.cursor], so re-touching the line it touched last, with nothing
   installed since, costs O(1) instead of a tag probe.  [run] borrows the
   domain's cache pair for the machine's geometry and resets it, instead
   of allocating a pair per simulation.

   Fast path (DESIGN.md §9): innermost loops whose statements access
   memory affinely with stride 0 or 1 in the loop variable — the
   contiguous-innermost structure ALT's own layout+loop tuning drives
   towards — are executed by a line-granular batching engine instead of
   the element-wise interpreter.  The engine walks the innermost loop in
   *spans* (maximal iteration ranges in which no access stream crosses a
   cache line and no accumulator spill fires): within a span every access
   is a guaranteed cache hit, so per stream it costs one O(1)
   [Cache.touch_at] instead of per-element tag probes, and the
   per-iteration counter increments collapse to one bulk update per
   statement run.  Values are computed in a separate tight loop over
   pre-hoisted base offsets (base + stride·x, one base per distinct
   access, refreshed once per run), eliminating the per-iteration
   closure chains and env reads of the scalar interpreter.
   Every batched operation reproduces the exact clock/stamp/tag
   transitions of the element-wise walk, so the produced counters are
   bit-identical to the scalar interpreter's — proven by the differential
   suite in test/test_fastsim.ml.  Gather/strided statements fall back to
   the scalar interpreter; [~fast:false] runs a whole program on it, the
   oracle the differential suite compares against. *)

module Var = Alt_tensor.Var
module Shape = Alt_tensor.Shape
module Ixexpr = Alt_tensor.Ixexpr
module Layout = Alt_tensor.Layout
module Program = Alt_ir.Program
module Sexpr = Alt_ir.Sexpr
module Loopenv = Alt_ir.Loopenv

type counters = {
  mutable insts : float;
  mutable loads : float;
  mutable stores : float;
  mutable flops : float;
  mutable l1_accesses : float;
  mutable l1_misses : float;
  mutable l2_misses : float;
}

type result = {
  machine : Machine.t;
  insts : float;
  loads : float;
  stores : float;
  flops : float;
  l1_accesses : float;
  l1_misses : float;
  l2_misses : float;
  parallel_extent : int;
  cycles : float;
  latency_ms : float;
  sampled : bool;
  scale : float;
}

(* Fast-engine coverage counters (observability only; never affect the
   simulation).  A "leaf group" is an innermost loop whose body is made of
   Store/Reduce statements — the unit the fast engine batches. *)
type engine_stats = {
  mutable fast_groups : int; (* leaf groups compiled to the fast path *)
  mutable scalar_groups : int; (* leaf groups that fell back *)
  mutable fast_runs : int; (* innermost-loop executions, fast engine *)
  mutable scalar_runs : int; (* innermost-loop executions, fallback *)
}

let fresh_engine_stats () =
  { fast_groups = 0; scalar_groups = 0; fast_runs = 0; scalar_runs = 0 }

let elem_bytes = 4 (* float32 addressing model *)

(* ------------------------------------------------------------------ *)
(* Execution context                                                  *)
(* ------------------------------------------------------------------ *)

type ctx = {
  mutable env : int array; (* loop variable values, dense-indexed *)
  mutable bufs : float array array;
  mutable bases : int array; (* byte base address per slot *)
  l1 : Cache.t;
  l2 : Cache.t;
  machine : Machine.t;
  (* hoisted [Machine.t]/[Cache.t] fields, read on every access *)
  prefetch_extra : int;
  lb1 : int; (* l1 line bytes *)
  c : counters;
  es : engine_stats;
}

(* After an L1 miss at [addr]: the L2 access and the prefetches the miss
   triggers; true when L2 missed too. *)
let l1_miss ctx addr =
  let l2_missed = not (Cache.access ctx.l2 addr) in
  let lb = ctx.lb1 in
  for k = 1 to ctx.prefetch_extra do
    ignore (Cache.prefetch ctx.l1 (addr + (k * lb)) : bool);
    ignore (Cache.prefetch ctx.l2 (addr + (k * lb)) : bool)
  done;
  l2_missed

(* One demand access through the access site's L1 cursor. *)
let mem_access ctx cur addr =
  ctx.c.l1_accesses <- ctx.c.l1_accesses +. 1.0;
  if Cache.access_at ctx.l1 cur addr < 0 then begin
    ctx.c.l1_misses <- ctx.c.l1_misses +. 1.0;
    if l1_miss ctx addr then ctx.c.l2_misses <- ctx.c.l2_misses +. 1.0
  end

(* ------------------------------------------------------------------ *)
(* Expression compilation (the shared access compiler, Alt_ir.Loopenv) *)
(* ------------------------------------------------------------------ *)

(* Stride of the vectorized variable through the flattened offset of [a];
   [None] when not affine.  0 and 1 are "contiguous" for vector issue. *)
let vec_stride (slots : Program.slot array) (a : Program.access) = function
  | None -> Some 0
  | Some v -> Loopenv.affine_stride slots a v

type vec_ctx = { vvar : Var.t option; lanes : int }

let access_inst_cost slots vc a =
  match vc.vvar with
  | None -> 1.0
  | Some _ -> (
      match vec_stride slots a vc.vvar with
      | Some 0 | Some 1 -> 1.0 /. float_of_int vc.lanes
      | Some _ | None -> 1.0)

(* Compile a pexpr to an evaluator; loads count themselves. *)
let rec compile_pexpr vm slots vc ctx (e : Program.pexpr) :
    int array -> float =
  match e with
  | Program.Pconst f -> fun _ -> f
  | Program.Pload a ->
      let off = Loopenv.compile_offset vm slots a in
      let cost = access_inst_cost slots vc a in
      let slot = a.Program.slot in
      let cur = Cache.cursor () in
      fun env ->
        let o = Loopenv.eval off env in
        mem_access ctx cur (ctx.bases.(slot) + (o * elem_bytes));
        ctx.c.loads <- ctx.c.loads +. cost;
        ctx.c.insts <- ctx.c.insts +. cost;
        ctx.bufs.(slot).(o)
  | Program.Pbin (op, a, b) ->
      let fa = compile_pexpr vm slots vc ctx a
      and fb = compile_pexpr vm slots vc ctx b in
      let g = Sexpr.apply_binop op in
      fun env -> g (fa env) (fb env)
  | Program.Pun (op, a) ->
      let fa = compile_pexpr vm slots vc ctx a in
      let g = Sexpr.apply_unop op in
      fun env -> g (fa env)
  | Program.Pselect (c, a, b) ->
      let fc = Loopenv.compile_cond vm c
      and fa = compile_pexpr vm slots vc ctx a
      and fb = compile_pexpr vm slots vc ctx b in
      fun env -> if fc env then fa env else fb env

let rec pexpr_arith = function
  | Program.Pload _ | Program.Pconst _ -> 0
  | Program.Pbin (_, a, b) -> 1 + pexpr_arith a + pexpr_arith b
  | Program.Pun (_, a) -> 1 + pexpr_arith a
  | Program.Pselect (_, a, b) -> 1 + max (pexpr_arith a) (pexpr_arith b)

(* ------------------------------------------------------------------ *)
(* Sampling: truncate outermost loops to fit a point budget.           *)
(* ------------------------------------------------------------------ *)

(* Annotated copy of the statement tree carrying simulated extents. *)
type astmt =
  | Afor of Program.loop * int (* simulated extent *) * astmt
  | Ablock of astmt list
  | Aleaf of Program.stmt

let rec annotate ratio (s : Program.stmt) : astmt =
  match s with
  | Program.For (l, b) ->
      if ratio >= 1.0 then Afor (l, l.Program.extent, annotate 1.0 b)
      else
        let sim =
          max 1
            (int_of_float (Float.round (ratio *. float_of_int l.Program.extent)))
        in
        let sim = min sim l.Program.extent in
        let ratio' = ratio *. float_of_int l.Program.extent /. float_of_int sim in
        Afor (l, sim, annotate (Float.min 1.0 ratio') b)
  | Program.Block lst -> Ablock (List.map (annotate ratio) lst)
  | (Program.Store _ | Program.Reduce _) as leaf -> Aleaf leaf

let rec sim_points = function
  | Afor (_, sim, b) -> sim * sim_points b
  | Ablock l -> List.fold_left (fun a s -> a + sim_points s) 0 l
  | Aleaf _ -> 1

(* ------------------------------------------------------------------ *)
(* Register promotion                                                 *)
(* ------------------------------------------------------------------ *)

(* Register-promotion factor for a reduction accumulator: walk enclosing
   loops innermost-first; loops whose variable the accumulator offset does
   not depend on multiply K (traffic divisor); loops it does depend on grow
   the register-tile footprint until the register budget is exhausted. *)
let promotion_factor machine (enclosing : Program.loop list)
    (a : Program.access) : int =
  let deps =
    Array.fold_left
      (fun s e -> Var.Set.union s (Ixexpr.vars e))
      Var.Set.empty a.Program.idx
  in
  let rec walk footprint k = function
    | [] -> k
    | (l : Program.loop) :: tl ->
        if Var.Set.mem l.Program.v deps then begin
          let footprint' = footprint * l.Program.extent in
          if footprint' > machine.Machine.reg_cap then k
          else walk footprint' k tl
        end
        else walk footprint (k * l.Program.extent) tl
  in
  max 1 (walk 1 1 enclosing)

(* ------------------------------------------------------------------ *)
(* Fast path: line-granular batched execution of innermost loops       *)
(* ------------------------------------------------------------------ *)

(* Hoisted base of one distinct access of an innermost statement group,
   shared by its cache stream, its value loads/stores and its
   accumulator spills. *)
type pbase = {
  pb_off : Loopenv.offset;
  pb_stride : int;
  mutable pb_base : int; (* element offset at x = 0, refreshed per run *)
}

(* A per-iteration access stream of an innermost statement group: one
   memory access per loop iteration at byte address [base + stride·4·x],
   with a memoized cache-residency handle for O(1) re-touches.  Streams
   are stored in exact scalar access order (per iteration: each leaf in
   block order; within a leaf, loads in evaluation order, then the store
   target). *)
type stream = {
  str_slot : int;
  str_pb : pbase; (* the access's hoisted element offset *)
  str_stride : int; (* elements per iteration: 0 or 1 *)
  mutable str_addr : int; (* byte address at the current iteration *)
  str_cur : Cache.cursor; (* memoized residency of the stream's line *)
}

(* One statement under the innermost loop, compiled for batched
   execution. *)
type fast_leaf = {
  fl_step : int -> unit; (* value update for iteration x *)
  fl_run : int -> unit; (* whole-loop value update (single-leaf groups) *)
  (* per-iteration counter deltas (exact dyadic floats; see DESIGN.md §9) *)
  fl_d_loads : float;
  fl_d_stores : float;
  fl_d_insts : float;
  fl_d_flops : float;
  fl_d_l1acc : int;
  (* accumulator spill state; fl_k = 0 for Store leaves *)
  fl_k : int;
  mutable fl_tick : int; (* persists across runs, like the scalar tick *)
  mutable fl_spills : int; (* spills in the current run *)
  fl_acc_slot : int;
  fl_acc : pbase; (* any affine stride; spills are full accesses *)
  fl_acc_cost : float;
  fl_acc_cur : Cache.cursor;
  mutable fl_acc_base : int; (* byte address at x = 0, refreshed per run *)
}

let rec pexpr_has_load = function
  | Program.Pload _ -> true
  | Program.Pconst _ -> false
  | Program.Pbin (_, a, b) -> pexpr_has_load a || pexpr_has_load b
  | Program.Pun (_, a) -> pexpr_has_load a
  | Program.Pselect (_, a, b) -> pexpr_has_load a || pexpr_has_load b

(* Loads under a Pselect execute conditionally, so the per-iteration
   access set would vary — such statements fall back to the scalar
   interpreter. *)
let rec selects_load_free = function
  | Program.Pload _ | Program.Pconst _ -> true
  | Program.Pbin (_, a, b) -> selects_load_free a && selects_load_free b
  | Program.Pun (_, a) -> selects_load_free a
  | Program.Pselect (_, a, b) ->
      (not (pexpr_has_load a)) && not (pexpr_has_load b)

(* Loads of [e] in evaluation order.  [compile_pexpr] builds
   [g (fa env) (fb env)] applications, whose arguments OCaml evaluates
   right-to-left — so the right subtree's accesses fire first.  The
   differential suite pins this order. *)
let rec loads_in_order = function
  | Program.Pload a -> [ a ]
  | Program.Pconst _ -> []
  | Program.Pbin (_, a, b) -> loads_in_order b @ loads_in_order a
  | Program.Pun (_, a) -> loads_in_order a
  | Program.Pselect (_, _, _) -> [] (* load-free by [selects_load_free] *)

(* Pure value evaluator: loads read buffers directly at hoisted affine
   offsets; no cache or counter effects.  Mirrors [compile_pexpr]'s
   evaluation structure exactly, so float results are bit-identical. *)
let rec compile_pure vm ctx (pbase_of : Program.access -> pbase)
    (e : Program.pexpr) : int -> float =
  match e with
  | Program.Pconst f -> fun _ -> f
  | Program.Pload a ->
      let pb = pbase_of a in
      let buf = ctx.bufs.(a.Program.slot) in
      fun x -> buf.(pb.pb_base + (pb.pb_stride * x))
  | Program.Pbin (op, a, b) ->
      let fa = compile_pure vm ctx pbase_of a
      and fb = compile_pure vm ctx pbase_of b in
      let g = Sexpr.apply_binop op in
      fun x -> g (fa x) (fb x)
  | Program.Pun (op, a) ->
      let fa = compile_pure vm ctx pbase_of a in
      let g = Sexpr.apply_unop op in
      fun x -> g (fa x)
  | Program.Pselect (c, a, b) ->
      let fc = Loopenv.compile_cond vm c
      and fa = compile_pure vm ctx pbase_of a
      and fb = compile_pure vm ctx pbase_of b in
      fun x -> if fc ctx.env then fa x else fb x

(* Bulk counter updates are products [delta * iterations].  They equal the
   scalar interpreter's one-by-one float additions exactly because every
   per-iteration cost is a dyadic rational (1, 1/lanes with power-of-two
   lanes, integer arith counts and their /lanes scalings), so both the
   partial sums and the products are computed without rounding. *)
let is_pow2 n = n > 0 && n land (n - 1) = 0

type fast_plan = {
  fp_streams : stream array;
  fp_leaves : fast_leaf array;
  fp_pbases : pbase array;
  fp_d_l1acc : int; (* per-iteration accesses, all leaves *)
}

(* Try to compile the body [b] of innermost loop [l] into a fast plan.
   Returns [None] — scalar fallback — unless every statement is a
   Store/Reduce whose per-iteration accesses are affine with stride 0 or 1
   in the loop variable (gather/strided bodies), with no loads under
   selects, and at most one Reduce placed last (spill ordering). *)
let fast_plan_of vm slots (vc : vec_ctx) ctx machine
    (enclosing : Program.loop list) (l : Program.loop) (b : astmt) :
    fast_plan option =
  let exception Fallback in
  try
    if not (is_pow2 machine.Machine.lanes) then raise Fallback;
    let rec flatten = function
      | Aleaf s -> [ s ]
      | Ablock lst -> List.concat_map flatten lst
      | Afor _ -> raise Fallback
    in
    let stmts = flatten b in
    if stmts = [] then raise Fallback;
    (* at most one Reduce, and only in last position (spills must come
       after every other access of the same iteration) *)
    let n = List.length stmts in
    List.iteri
      (fun i s ->
        match s with
        | Program.Reduce _ when i < n - 1 -> raise Fallback
        | _ -> ())
      stmts;
    let v = Some l.Program.v in
    let stride01 a =
      match vec_stride slots a v with
      | Some ((0 | 1) as s) -> s
      | Some _ | None -> raise Fallback
    in
    let stride_any a =
      match vec_stride slots a v with Some s -> s | None -> raise Fallback
    in
    let vslot = Loopenv.var_slot vm l.Program.v in
    let streams = ref [] and pbases = ref [] in
    (* one hoisted base per distinct access, refreshed once per run *)
    let pbase_of (a : Program.access) =
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
    (* Whole-loop value runner from a per-iteration step; the loop
       variable's env slot tracks x for Pselect conditions. *)
    let generic_run (step : int -> unit) simn =
      let env = ctx.env in
      for x = 0 to simn - 1 do
        env.(vslot) <- x;
        step x
      done
    in
    let mk_stream a =
      let s =
        {
          str_slot = a.Program.slot;
          str_stride = stride01 a;
          str_pb = pbase_of a;
          str_addr = 0;
          str_cur = Cache.cursor ();
        }
      in
      streams := s :: !streams;
      s
    in
    let compile_leaf (s : Program.stmt) : fast_leaf =
      match s with
      | Program.Store (a, e) ->
          if not (selects_load_free e) then raise Fallback;
          let lds = loads_in_order e in
          List.iter (fun la -> ignore (mk_stream la : stream)) lds;
          let st = mk_stream a in
          ignore (st : stream);
          let loads_cost =
            List.fold_left
              (fun acc la -> acc +. access_inst_cost slots vc la)
              0.0 lds
          in
          let st_cost = access_inst_cost slots vc a in
          let arith = float_of_int (pexpr_arith e) in
          let arith_scaled =
            match vc.vvar with
            | None -> arith
            | Some _ -> arith /. float_of_int vc.lanes
          in
          let fe = compile_pure vm ctx pbase_of e in
          let spb = pbase_of a in
          let buf = ctx.bufs.(a.Program.slot) in
          let step x = buf.(spb.pb_base + (spb.pb_stride * x)) <- fe x in
          let run =
            match e with
            | Program.Pconst cst ->
                (* tile-init loops: one fill instead of simn closure calls;
                   stride 0 degenerates to one (idempotent) write *)
                fun simn ->
                  if spb.pb_stride = 1 then Array.fill buf spb.pb_base simn cst
                  else buf.(spb.pb_base) <- cst
            | _ -> generic_run step
          in
          {
            fl_step = step;
            fl_run = run;
            fl_d_loads = loads_cost;
            fl_d_stores = st_cost;
            fl_d_insts = loads_cost +. st_cost +. arith_scaled;
            fl_d_flops = arith;
            fl_d_l1acc = List.length lds + 1;
            fl_k = 0;
            fl_tick = 0;
            fl_spills = 0;
            fl_acc_slot = 0;
            fl_acc = spb (* unused: no spills *);
            fl_acc_cost = 0.0;
            fl_acc_cur = Cache.cursor ();
            fl_acc_base = 0;
          }
      | Program.Reduce (a, r, e) ->
          if not (selects_load_free e) then raise Fallback;
          let lds = loads_in_order e in
          List.iter (fun la -> ignore (mk_stream la : stream)) lds;
          let loads_cost =
            List.fold_left
              (fun acc la -> acc +. access_inst_cost slots vc la)
              0.0 lds
          in
          let arith = float_of_int (pexpr_arith e + 1) in
          let arith_scaled =
            match vc.vvar with
            | None -> arith
            | Some _ -> arith /. float_of_int vc.lanes
          in
          let acc_cost = access_inst_cost slots vc a in
          let k = promotion_factor machine enclosing a in
          let apb = pbase_of a in
          let astride = apb.pb_stride in
          let buf = ctx.bufs.(a.Program.slot) in
          let step, run =
            match e with
            | Program.Pbin
                (Sexpr.Bmul, Program.Pload la, Program.Pload lb)
              when r = Program.Rsum ->
                (* the multiply-accumulate kernel every conv/matmul/depthwise
                   reduction lowers to: run it as a tight array loop, with
                   loop-invariant (stride-0) operands hoisted when they
                   cannot alias the accumulator *)
                let pba = pbase_of la and pbb = pbase_of lb in
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
                let run simn =
                  let oa = pba.pb_base
                  and ob = pbb.pb_base
                  and oc = apb.pb_base in
                  if astride = 0 && (not alias_a) && not alias_b then begin
                    (* scalar accumulator: defer the store to the end *)
                    let acc = ref buf.(oc) in
                    (if sa = 0 then
                       let va = ba.(oa) in
                       for x = 0 to simn - 1 do
                         acc := !acc +. (va *. bb.(ob + (sb * x)))
                       done
                     else if sb = 0 then
                       let vb = bb.(ob) in
                       for x = 0 to simn - 1 do
                         acc := !acc +. (ba.(oa + (sa * x)) *. vb)
                       done
                     else
                       for x = 0 to simn - 1 do
                         acc :=
                           !acc +. (ba.(oa + (sa * x)) *. bb.(ob + (sb * x)))
                       done);
                    buf.(oc) <- !acc
                  end
                  else if sa = 0 && not alias_a then begin
                    let va = ba.(oa) in
                    for x = 0 to simn - 1 do
                      let o = oc + (astride * x) in
                      buf.(o) <- buf.(o) +. (va *. bb.(ob + (sb * x)))
                    done
                  end
                  else if sb = 0 && not alias_b then begin
                    let vb = bb.(ob) in
                    for x = 0 to simn - 1 do
                      let o = oc + (astride * x) in
                      buf.(o) <- buf.(o) +. (ba.(oa + (sa * x)) *. vb)
                    done
                  end
                  else
                    for x = 0 to simn - 1 do
                      let o = oc + (astride * x) in
                      buf.(o) <-
                        buf.(o)
                        +. (ba.(oa + (sa * x)) *. bb.(ob + (sb * x)))
                    done
                in
                (step, run)
            | _ ->
                let fe = compile_pure vm ctx pbase_of e in
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
          {
            fl_step = step;
            fl_run = run;
            fl_d_loads = loads_cost;
            fl_d_stores = 0.0;
            fl_d_insts = loads_cost +. arith_scaled;
            fl_d_flops = arith;
            fl_d_l1acc = List.length lds;
            fl_k = k;
            fl_tick = 0;
            fl_spills = 0;
            fl_acc_slot = a.Program.slot;
            fl_acc = apb;
            fl_acc_cost = acc_cost;
            fl_acc_cur = Cache.cursor ();
            fl_acc_base = 0;
          }
      | Program.For _ | Program.Block _ -> raise Fallback
    in
    let leaves = Array.of_list (List.map compile_leaf stmts) in
    let streams = Array.of_list (List.rev !streams) in
    let d_l1acc = Array.fold_left (fun a fl -> a + fl.fl_d_l1acc) 0 leaves in
    Some
      {
        fp_streams = streams;
        fp_leaves = leaves;
        fp_pbases = Array.of_list (List.rev_map snd !pbases);
        fp_d_l1acc = d_l1acc;
      }
  with Fallback -> None

(* Like [mem_access], but counting misses into int refs flushed in bulk. *)
let fast_mem_access ctx cur mis1 mis2 addr =
  if Cache.access_at ctx.l1 cur addr < 0 then begin
    incr mis1;
    if l1_miss ctx addr then incr mis2
  end

(* One execution of an innermost loop through the batching engine:
   value pass (tight loop over hoisted offsets), then the span walk over
   the cache model, then one bulk counter flush. *)
let make_fast_runner ctx (plan : fast_plan) vslot sim =
  let streams = plan.fp_streams
  and leaves = plan.fp_leaves
  and pbases = plan.fp_pbases in
  let n_streams = Array.length streams
  and n_leaves = Array.length leaves
  and n_pbases = Array.length pbases in
  let l1 = ctx.l1 in
  let lb = ctx.lb1 in
  let fsim = float_of_int sim in
  fun () ->
    ctx.es.fast_runs <- ctx.es.fast_runs + 1;
    let env = ctx.env in
    env.(vslot) <- 0;
    (* refresh hoisted bases at x = 0 *)
    for i = 0 to n_pbases - 1 do
      let pb = pbases.(i) in
      pb.pb_base <- Loopenv.eval pb.pb_off env
    done;
    for i = 0 to n_streams - 1 do
      let s = streams.(i) in
      s.str_addr <- ctx.bases.(s.str_slot) + (s.str_pb.pb_base * elem_bytes)
    done;
    for i = 0 to n_leaves - 1 do
      let fl = leaves.(i) in
      fl.fl_spills <- 0;
      if fl.fl_k > 0 then
        fl.fl_acc_base <-
          ctx.bases.(fl.fl_acc_slot) + (fl.fl_acc.pb_base * elem_bytes)
    done;
    (* value pass: pure, independent of the cache model.  Single-leaf
       groups (the common case) run the leaf's compiled whole-loop
       runner; multi-leaf blocks interleave per iteration, since a later
       leaf may read what an earlier one wrote at the same iteration. *)
    if n_leaves = 1 then leaves.(0).fl_run sim
    else
      for x = 0 to sim - 1 do
        env.(vslot) <- x;
        for i = 0 to n_leaves - 1 do
          leaves.(i).fl_step x
        done
      done;
    (* cache pass: span walk *)
    let mis1 = ref 0 and mis2 = ref 0 in
    let x = ref 0 in
    while !x < sim do
      (* span length: iterations until any stride-1 stream crosses a line
         or an accumulator spill fires *)
      let m = ref (sim - !x) in
      for i = 0 to n_streams - 1 do
        let s = streams.(i) in
        if s.str_stride = 1 then begin
          let within = (lb - (s.str_addr land (lb - 1))) / elem_bytes in
          if within < !m then m := within
        end
      done;
      for i = 0 to n_leaves - 1 do
        let fl = leaves.(i) in
        if fl.fl_k > 0 then begin
          let d = fl.fl_k - fl.fl_tick in
          if d < !m then m := d
        end
      done;
      let m = !m in
      (* Iteration !x, exact scalar access order: O(1) memoized touch when
         no line was installed since the stream's last access, otherwise
         one real (possibly missing) access. *)
      for i = 0 to n_streams - 1 do
        let s = streams.(i) in
        fast_mem_access ctx s.str_cur mis1 mis2 s.str_addr
      done;
      (* Iterations !x+1 .. !x+m-1: no stream crosses a line and no spill
         fires, so if every stream's line survived the fronts above, all
         remaining accesses are guaranteed hits — collapsible to one
         O(1) touch_run per stream (within-set stamp order is preserved:
         each stream's final stamp keeps its per-iteration relative
         order).  A front install may however have evicted another
         stream's line (more active streams than ways in one set): such
         spans replay element-wise, which is scalar by construction. *)
      if m > 1 then begin
        let resident = ref true in
        for i = 0 to n_streams - 1 do
          if not (Cache.resident l1 streams.(i).str_cur) then resident := false
        done;
        if !resident then
          for i = 0 to n_streams - 1 do
            let s = streams.(i) in
            Cache.touch_at l1 s.str_cur s.str_addr (m - 1)
          done
        else
          for y = 1 to m - 1 do
            for i = 0 to n_streams - 1 do
              let s = streams.(i) in
              fast_mem_access ctx s.str_cur mis1 mis2
                (s.str_addr + (s.str_stride * elem_bytes * y))
            done
          done
      end;
      for i = 0 to n_streams - 1 do
        let s = streams.(i) in
        s.str_addr <- s.str_addr + (s.str_stride * elem_bytes * m)
      done;
      (* accumulator spills fire after the loads of their iteration *)
      for i = 0 to n_leaves - 1 do
        let fl = leaves.(i) in
        if fl.fl_k > 0 then begin
          fl.fl_tick <- fl.fl_tick + m;
          if fl.fl_tick >= fl.fl_k then begin
            fl.fl_tick <- 0;
            fl.fl_spills <- fl.fl_spills + 1;
            let addr =
              fl.fl_acc_base
              + (fl.fl_acc.pb_stride * elem_bytes * (!x + m - 1))
            in
            fast_mem_access ctx fl.fl_acc_cur mis1 mis2 addr;
            fast_mem_access ctx fl.fl_acc_cur mis1 mis2 addr
          end
        end
      done;
      x := !x + m
    done;
    (* bulk counter flush *)
    let c = ctx.c in
    let spill_acc = ref 0 in
    for i = 0 to n_leaves - 1 do
      let fl = leaves.(i) in
      c.loads <- c.loads +. (fl.fl_d_loads *. fsim);
      c.stores <- c.stores +. (fl.fl_d_stores *. fsim);
      c.insts <- c.insts +. (fl.fl_d_insts *. fsim);
      c.flops <- c.flops +. (fl.fl_d_flops *. fsim);
      if fl.fl_spills > 0 then begin
        let ns = float_of_int fl.fl_spills in
        c.loads <- c.loads +. (fl.fl_acc_cost *. ns);
        c.stores <- c.stores +. (fl.fl_acc_cost *. ns);
        c.insts <- c.insts +. (2.0 *. fl.fl_acc_cost *. ns);
        spill_acc := !spill_acc + fl.fl_spills
      end
    done;
    c.l1_accesses <-
      c.l1_accesses
      +. float_of_int ((plan.fp_d_l1acc * sim) + (2 * !spill_acc));
    c.l1_misses <- c.l1_misses +. float_of_int !mis1;
    c.l2_misses <- c.l2_misses +. float_of_int !mis2

(* ------------------------------------------------------------------ *)
(* Statement compilation                                              *)
(* ------------------------------------------------------------------ *)

let rec all_leaves = function
  | Aleaf _ -> true
  | Ablock l -> l <> [] && List.for_all all_leaves l
  | Afor _ -> false

let compile ctx (p : Program.t) ~(sample_ratio : float) ~(fast : bool) =
  let machine = ctx.machine in
  let vm = Loopenv.create () in
  let slots = p.Program.slots in
  let ann = annotate sample_ratio p.Program.body in
  (* enclosing: innermost-first loop list; vc: vectorization context *)
  let rec comp (enclosing : Program.loop list) (vc : vec_ctx) = function
    | Afor (l, sim, b) -> (
        let slot = Loopenv.var_slot vm l.Program.v in
        let vc' =
          if l.Program.kind = Program.Vectorized then
            { vvar = Some l.Program.v; lanes = machine.Machine.lanes }
          else vc
        in
        let enclosing' = l :: enclosing in
        let plan =
          if fast && all_leaves b then
            fast_plan_of vm slots vc' ctx machine enclosing' l b
          else None
        in
        match plan with
        | Some plan ->
            ctx.es.fast_groups <- ctx.es.fast_groups + 1;
            make_fast_runner ctx plan slot sim
        | None ->
            if all_leaves b then
              ctx.es.scalar_groups <- ctx.es.scalar_groups + 1;
            let fb = comp enclosing' vc' b in
            if all_leaves b then
              fun () ->
                ctx.es.scalar_runs <- ctx.es.scalar_runs + 1;
                let env = ctx.env in
                for x = 0 to sim - 1 do
                  env.(slot) <- x;
                  fb ()
                done
            else
              fun () ->
                let env = ctx.env in
                for x = 0 to sim - 1 do
                  env.(slot) <- x;
                  fb ()
                done)
    | Ablock lst ->
        let fs = List.map (comp enclosing vc) lst in
        fun () -> List.iter (fun f -> f ()) fs
    | Aleaf (Program.Store (a, e)) ->
        let off = Loopenv.compile_offset vm slots a in
        let fe = compile_pexpr vm slots vc ctx e in
        let arith = float_of_int (pexpr_arith e) in
        let arith_scaled =
          match vc.vvar with
          | None -> arith
          | Some _ -> arith /. float_of_int vc.lanes
        in
        let st_cost = access_inst_cost slots vc a in
        let slot = a.Program.slot in
        let cur = Cache.cursor () in
        fun () ->
          let v = fe ctx.env in
          let o = Loopenv.eval off ctx.env in
          mem_access ctx cur (ctx.bases.(slot) + (o * elem_bytes));
          ctx.bufs.(slot).(o) <- v;
          ctx.c.stores <- ctx.c.stores +. st_cost;
          ctx.c.insts <- ctx.c.insts +. st_cost +. arith_scaled;
          ctx.c.flops <- ctx.c.flops +. arith
    | Aleaf (Program.For _ | Program.Block _) -> assert false
    | Aleaf (Program.Reduce (a, r, e)) ->
        let off = Loopenv.compile_offset vm slots a in
        let fe = compile_pexpr vm slots vc ctx e in
        let arith = float_of_int (pexpr_arith e + 1) in
        let arith_scaled =
          match vc.vvar with
          | None -> arith
          | Some _ -> arith /. float_of_int vc.lanes
        in
        let acc_cost = access_inst_cost slots vc a in
        let k = promotion_factor machine enclosing a in
        let tick = ref 0 in
        let slot = a.Program.slot in
        let cur = Cache.cursor () in
        let combine =
          match r with
          | Program.Rsum -> Float.add
          | Program.Rmax -> Float.max
        in
        fun () ->
          let v = fe ctx.env in
          let o = Loopenv.eval off ctx.env in
          let buf = ctx.bufs.(slot) in
          buf.(o) <- combine buf.(o) v;
          ctx.c.insts <- ctx.c.insts +. arith_scaled;
          ctx.c.flops <- ctx.c.flops +. arith;
          incr tick;
          if !tick >= k then begin
            tick := 0;
            (* accumulator spill/refill once per K iterations *)
            let addr = ctx.bases.(slot) + (o * elem_bytes) in
            mem_access ctx cur addr;
            mem_access ctx cur addr;
            ctx.c.loads <- ctx.c.loads +. acc_cost;
            ctx.c.stores <- ctx.c.stores +. acc_cost;
            ctx.c.insts <- ctx.c.insts +. (2.0 *. acc_cost)
          end
  in
  let runner = comp [] { vvar = None; lanes = machine.Machine.lanes } ann in
  (vm, runner, ann)

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let parallel_extent (p : Program.t) =
  List.fold_left
    (fun acc (l : Program.loop) ->
      if l.Program.kind = Program.Parallel then acc * l.Program.extent else acc)
    1 (Program.loops p)

let latency_of_counters machine ~(c : counters) ~(par : int) =
  let compute = c.insts *. machine.Machine.cpi in
  let mem =
    (c.l1_misses *. machine.Machine.l1_miss_penalty)
    +. (c.l2_misses *. machine.Machine.l2_miss_penalty)
  in
  let serial = Float.max compute mem +. (0.25 *. Float.min compute mem) in
  let speedup =
    if par > 1 then
      Float.max 1.0
        (float_of_int (min machine.Machine.cores par)
        *. machine.Machine.parallel_efficiency)
    else 1.0
  in
  serial /. speedup

(* Observability (DESIGN.md §11).  Everything here is gated on the
   metrics/trace enabled flags and sits strictly outside the compiled
   runner, so the simulation inner loops are untouched and the disabled
   path costs two flag checks per [run] (the ≤2% overhead budget of
   [make bench-profiler] is really ~0%).  Counters only — safe to bump
   from pool worker domains, where [run] executes under the tuner. *)
let m_runs = Alt_obs.Metrics.counter "profiler.runs"
let m_sampled = Alt_obs.Metrics.counter "profiler.sampled_runs"
let m_fast_runs = Alt_obs.Metrics.counter "profiler.fast_loop_runs"
let m_scalar_runs = Alt_obs.Metrics.counter "profiler.scalar_loop_runs"
let m_fast_groups = Alt_obs.Metrics.counter "profiler.fast_groups"
let m_scalar_groups = Alt_obs.Metrics.counter "profiler.scalar_groups"

let publish_run ctx ~(es0 : engine_stats) ~sampled =
  Alt_obs.Metrics.incr m_runs;
  if sampled then Alt_obs.Metrics.incr m_sampled;
  let es = ctx.es in
  Alt_obs.Metrics.add m_fast_runs (es.fast_runs - es0.fast_runs);
  Alt_obs.Metrics.add m_scalar_runs (es.scalar_runs - es0.scalar_runs);
  Alt_obs.Metrics.add m_fast_groups (es.fast_groups - es0.fast_groups);
  Alt_obs.Metrics.add m_scalar_groups (es.scalar_groups - es0.scalar_groups);
  Cache.publish_obs ~prefix:"sim.l1" ctx.l1;
  Cache.publish_obs ~prefix:"sim.l2" ctx.l2

(* Cache models outlive simulations: each domain keeps one L1/L2 pair per
   cache geometry and resets it when a run takes it, since allocating the
   arrays of a large L2 per run dominated the major heap.  A reset cache is
   indistinguishable from a fresh one (test/test_machine.ml).  Runs never
   nest on a domain — nothing a run calls re-enters [run] or suspends it —
   so one pair per geometry is enough. *)
let cache_pairs : ((Cache.cfg * Cache.cfg) * (Cache.t * Cache.t)) list ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let take_caches (machine : Machine.t) =
  let key = (machine.Machine.l1, machine.Machine.l2) in
  let pairs = Domain.DLS.get cache_pairs in
  match List.assoc_opt key !pairs with
  | Some ((l1, l2) as p) ->
      Cache.reset l1;
      Cache.reset l2;
      p
  | None ->
      let p = (Cache.create machine.Machine.l1, Cache.create machine.Machine.l2) in
      pairs := (key, p) :: !pairs;
      p

let run ?(machine = Machine.intel_cpu) ?max_points ?(fast = true) ?engine
    (p : Program.t) ~(bufs : float array array) : result =
  if Array.length bufs <> Array.length p.Program.slots then
    invalid_arg "Profiler.run: buffer count mismatch";
  Array.iteri
    (fun i b ->
      let want =
        Layout.num_physical_elements p.Program.slots.(i).Program.layout
      in
      if Array.length b <> want then
        invalid_arg
          (Fmt.str "Profiler.run: slot %d (%s) has %d elements, want %d" i
             p.Program.slots.(i).Program.sname (Array.length b) want))
    bufs;
  let total = Program.points p in
  let ratio =
    match max_points with
    | Some m when total > m -> float_of_int m /. float_of_int total
    | _ -> 1.0
  in
  let c =
    {
      insts = 0.0;
      loads = 0.0;
      stores = 0.0;
      flops = 0.0;
      l1_accesses = 0.0;
      l1_misses = 0.0;
      l2_misses = 0.0;
    }
  in
  let es = match engine with Some es -> es | None -> fresh_engine_stats () in
  let lb1 = machine.Machine.l1.Cache.line_bytes in
  let l1, l2 = take_caches machine in
  let ctx =
    {
      env = [||];
      bufs;
      bases = [||];
      l1;
      l2;
      machine;
      prefetch_extra = machine.Machine.prefetch_extra;
      lb1;
      c;
      es;
    }
  in
  let vm, runner, ann = compile ctx p ~sample_ratio:ratio ~fast in
  let simulated = sim_points ann in
  let scale = float_of_int total /. float_of_int (max 1 simulated) in
  (* Distinct, line-aligned base addresses per slot. *)
  let bases = Array.make (Array.length bufs) 0 in
  let cursor = ref 0 in
  Array.iteri
    (fun i b ->
      bases.(i) <- !cursor;
      let bytes = Array.length b * elem_bytes in
      let lb = machine.Machine.l1.Cache.line_bytes in
      cursor := !cursor + (Shape.cdiv bytes lb * lb) + lb)
    bufs;
  ctx.env <- Loopenv.alloc_env vm;
  ctx.bases <- bases;
  (* engine-stats snapshot for delta publication; [es] itself stands in
     when metrics are off so the disabled path allocates nothing *)
  let es0 =
    if Alt_obs.Metrics.enabled () then
      { fast_groups = es.fast_groups; scalar_groups = es.scalar_groups;
        fast_runs = es.fast_runs; scalar_runs = es.scalar_runs }
    else es
  in
  (* the span wraps the whole interpretation; attrs are only built when a
     trace sink is installed, so the default path allocates nothing *)
  if Alt_obs.Trace.enabled () then
    Alt_obs.Trace.with_span "profiler.run"
      ~attrs:
        [
          ("machine", Alt_obs.Json.String machine.Machine.name);
          ("points", Alt_obs.Json.Int total);
          ("sampled", Alt_obs.Json.Bool (ratio < 1.0));
        ]
      runner
  else runner ();
  if Alt_obs.Metrics.enabled () then publish_run ctx ~es0 ~sampled:(ratio < 1.0);
  c.insts <- c.insts *. scale;
  c.loads <- c.loads *. scale;
  c.stores <- c.stores *. scale;
  c.flops <- c.flops *. scale;
  c.l1_accesses <- c.l1_accesses *. scale;
  c.l1_misses <- c.l1_misses *. scale;
  c.l2_misses <- c.l2_misses *. scale;
  let par = parallel_extent p in
  let cycles = latency_of_counters machine ~c ~par in
  {
    machine;
    insts = c.insts;
    loads = c.loads;
    stores = c.stores;
    flops = c.flops;
    l1_accesses = c.l1_accesses;
    l1_misses = c.l1_misses;
    l2_misses = c.l2_misses;
    parallel_extent = par;
    cycles;
    latency_ms = cycles /. (machine.Machine.freq_ghz *. 1e6);
    sampled = ratio < 1.0;
    scale;
  }

let pp_result ppf (r : result) =
  Fmt.pf ppf
    "@[<h>%s: lat=%.4fms insts=%.3e loads=%.3e stores=%.3e l1mis=%.3e \
     l2mis=%.3e flops=%.3e par=%d%s@]"
    r.machine.Machine.name r.latency_ms r.insts r.loads r.stores r.l1_misses
    r.l2_misses r.flops r.parallel_extent
    (if r.sampled then Fmt.str " (sampled x%.1f)" r.scale else "")
