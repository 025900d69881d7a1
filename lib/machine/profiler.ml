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
   memory affinely in the loop variable, with any stride, are executed by
   a line-granular batching engine instead of the element-wise
   interpreter.  The engine walks the innermost loop in *spans* (maximal
   iteration ranges in which no access stream, and no accumulator that
   moves with the loop, leaves its cache line; cut short at a spill
   whose line is not known resident): it resolves a span's first
   iteration exactly, and when every line the rest will touch is still
   resident, the rest is a run of guaranteed hits that costs one O(1)
   [Cache.touch_at] per stream and one for the accumulator's spills.
   Per-iteration counter increments collapse to one bulk update per
   chain entry.  Values are computed ahead of the cache pass, in a
   separate tight loop over hoisted base offsets (base + stride·x, one
   base per distinct access), by the leaf compiler the exec kernels run
   too ([Loopenv.leaf_group]).  Each batched loop runs with the perfect
   chain of loops above it that every access is affine in: the shared
   chain walker ([Loopenv.chain]) evaluates the bases once per chain
   entry and strength-reduces them across the chain's sampled extents.
   Every batched operation leaves the same tags and per-set recency
   order as the element-wise walk, so the produced counters are
   bit-identical to the scalar interpreter's — proven by the differential
   suite in test/test_fastsim.ml.  Statements with non-affine accesses or
   loads under a select fall back to the scalar interpreter;
   [~fast:false] runs a whole program on it, the oracle the differential
   suite compares against. *)

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

(* A per-iteration access stream of an innermost statement group: one
   memory access per loop iteration at byte address
   [addr + bstride·x], with a cursor memoizing the line it touched
   last.  Streams are stored in exact scalar access order (per
   iteration: each leaf in block order; within a leaf, loads in
   evaluation order, then the store target). *)
type stream = {
  str_slot : int;
  str_base : Loopenv.base; (* the access's hoisted element offset *)
  str_bstride : int; (* bytes per iteration, any sign *)
  str_shift : int; (* log2 |bstride| when a power of two, else -1 *)
  mutable str_addr : int; (* byte address at the current iteration *)
  str_cur : Cache.cursor;
}

(* The accumulator of the group's Reduce, spilled and refilled (two
   accesses of its line) once every [sp_k] iterations.  [sp_k = 0] when
   the group has no Reduce; the other fields are then unused. *)
type spill = {
  sp_slot : int;
  sp_base : Loopenv.base;
  sp_bstride : int;
  sp_shift : int;
  sp_k : int;
  mutable sp_tick : int; (* persists across runs, like the scalar tick *)
  mutable sp_addr : int; (* byte address at the current iteration *)
  mutable sp_count : int; (* spills since the last counter flush *)
  sp_cost : float;
  sp_cur : Cache.cursor;
}

(* The per-iteration counter deltas of one statement under the innermost
   loop (exact dyadic floats; see DESIGN.md §9). *)
type fast_leaf = {
  fl_d_loads : float;
  fl_d_stores : float;
  fl_d_insts : float;
  fl_d_flops : float;
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

(* Bulk counter updates are products [delta * iterations].  They equal the
   scalar interpreter's one-by-one float additions exactly because every
   per-iteration cost is a dyadic rational (1, 1/lanes with power-of-two
   lanes, integer arith counts and their /lanes scalings), so both the
   partial sums and the products are computed without rounding. *)
let is_pow2 n = n > 0 && n land (n - 1) = 0

(* log2 |n| when |n| is a power of two, else -1. *)
let shift_of n =
  let n = abs n in
  if is_pow2 n then
    let rec go k = if 1 lsl k = n then k else go (k + 1) in
    go 0
  else -1

type fast_plan = {
  fp_streams : stream array;
  fp_leaves : fast_leaf array;
  fp_bases : Loopenv.base array; (* one per distinct access *)
  fp_inner : int -> int array -> unit; (* the value pass of n iterations *)
  fp_spill : spill;
  fp_d_l1acc : int; (* per-iteration stream accesses, all leaves *)
}

(* Try to compile the body [b] of innermost loop [l] into a fast plan.
   Returns [None] — scalar fallback — unless every statement is a
   Store/Reduce whose accesses are affine in the loop variable (any
   stride), with no loads under selects (the access set of an iteration
   would vary), and at most one Reduce placed last (its spills follow
   every other access of the iteration).  The values come from the leaf
   compiler the exec kernels use ([Loopenv.leaf_group]); the plan adds
   the streams, the spill and the counter deltas. *)
let fast_plan_of vm slots (vc : vec_ctx) ctx machine
    (enclosing : Program.loop list) (l : Program.loop) (b : astmt) :
    fast_plan option =
  let rec flatten = function
    | Aleaf s -> [ s ]
    | Ablock lst -> List.concat_map flatten lst
    | Afor _ -> assert false (* only leaf groups come here *)
  in
  let stmts = flatten b in
  let rec eligible = function
    | [] -> true
    | [ Program.Reduce (_, _, e) ] -> selects_load_free e
    | Program.Store (_, e) :: rest -> selects_load_free e && eligible rest
    | _ -> false
  in
  if not (is_pow2 machine.Machine.lanes && eligible stmts) then None
  else
    match Loopenv.leaf_group vm slots ctx.bufs l.Program.v stmts with
    | None -> None
    | Some g ->
        let base_of = g.Loopenv.lg_base in
        let stream a =
          let b = base_of a in
          {
            str_slot = a.Program.slot;
            str_base = b;
            str_bstride = b.Loopenv.b_stride * elem_bytes;
            str_shift = shift_of (b.Loopenv.b_stride * elem_bytes);
            str_addr = 0;
            str_cur = Cache.cursor ();
          }
        in
        let loads_cost lds =
          List.fold_left
            (fun acc la -> acc +. access_inst_cost slots vc la)
            0.0 lds
        in
        let scaled arith =
          match vc.vvar with
          | None -> arith
          | Some _ -> arith /. float_of_int vc.lanes
        in
        let spill = ref None in
        let compile_leaf (s : Program.stmt) =
          match s with
          | Program.Store (a, e) ->
              let lds = loads_in_order e in
              let ld_cost = loads_cost lds
              and st_cost = access_inst_cost slots vc a in
              let arith = float_of_int (pexpr_arith e) in
              ( List.map stream (lds @ [ a ]),
                {
                  fl_d_loads = ld_cost;
                  fl_d_stores = st_cost;
                  fl_d_insts = ld_cost +. st_cost +. scaled arith;
                  fl_d_flops = arith;
                } )
          | Program.Reduce (a, _, e) ->
              let lds = loads_in_order e in
              let ld_cost = loads_cost lds in
              let arith = float_of_int (pexpr_arith e + 1) in
              let ab = base_of a in
              let astride = ab.Loopenv.b_stride in
              spill :=
                Some
                  {
                    sp_slot = a.Program.slot;
                    sp_base = ab;
                    sp_bstride = astride * elem_bytes;
                    sp_shift = shift_of (astride * elem_bytes);
                    sp_k = promotion_factor machine enclosing a;
                    sp_tick = 0;
                    sp_addr = 0;
                    sp_count = 0;
                    sp_cost = access_inst_cost slots vc a;
                    sp_cur = Cache.cursor ();
                  };
              ( List.map stream lds,
                {
                  fl_d_loads = ld_cost;
                  fl_d_stores = 0.0;
                  fl_d_insts = ld_cost +. scaled arith;
                  fl_d_flops = arith;
                } )
          | Program.For _ | Program.Block _ -> assert false
        in
        let streams, leaves = List.split (List.map compile_leaf stmts) in
        let streams = Array.of_list (List.concat streams) in
        let bases = g.Loopenv.lg_bases in
        let spill =
          match !spill with
          | Some sp -> sp
          | None ->
              {
                sp_slot = 0;
                sp_base = bases.(0);
                sp_bstride = 0;
                sp_shift = -1;
                sp_k = 0;
                sp_tick = 0;
                sp_addr = 0;
                sp_count = 0;
                sp_cost = 0.0;
                sp_cur = Cache.cursor ();
              }
        in
        Some
          {
            fp_streams = streams;
            fp_leaves = Array.of_list leaves;
            fp_bases = bases;
            fp_inner = g.Loopenv.lg_inner;
            fp_spill = spill;
            fp_d_l1acc = Array.length streams;
          }

(* Like [mem_access], with the access itself counted in bulk. *)
let fast_mem_access ctx cur addr =
  if Cache.access_at ctx.l1 cur addr < 0 then begin
    let c = ctx.c in
    c.l1_misses <- c.l1_misses +. 1.0;
    if l1_miss ctx addr then c.l2_misses <- c.l2_misses +. 1.0
  end

(* One spill: the accumulator's two accesses at [addr]. *)
let spill_at ctx sp addr =
  sp.sp_count <- sp.sp_count + 1;
  fast_mem_access ctx sp.sp_cur addr;
  fast_mem_access ctx sp.sp_cur addr

(* Iterations [y0, y1) counted from the streams' current addresses,
   element by element in the scalar interpreter's order: every stream
   through its cursor (O(1) when it re-touches its line with nothing
   installed since), then the spill if its tick fires. *)
let replay ctx (streams : stream array) sp y0 y1 =
  let k = sp.sp_k in
  for y = y0 to y1 - 1 do
    for i = 0 to Array.length streams - 1 do
      let s = streams.(i) in
      fast_mem_access ctx s.str_cur (s.str_addr + (s.str_bstride * y))
    done;
    if k > 0 then begin
      let t = sp.sp_tick + 1 in
      if t >= k then begin
        sp.sp_tick <- 0;
        spill_at ctx sp (sp.sp_addr + (sp.sp_bstride * y))
      end
      else sp.sp_tick <- t
    end
  done

(* Iterations from byte address [addr] on, moving [bs] bytes per
   iteration ([shift] = log2 |bs| when that is a power of two, sparing
   the division), before the address leaves its [lb]-byte line: at
   least 1, and [max_int] when it does not move. *)
let line_run lb bs shift addr =
  if bs = 0 then max_int
  else
    let room = if bs > 0 then lb - 1 - (addr land (lb - 1)) else addr land (lb - 1) in
    (if shift >= 0 then room lsr shift else room / abs bs) + 1

(* The cache pass of one execution of an innermost loop of [sim]
   iterations, from the bases the chain walker left.  It walks the loop
   in spans: maximal runs of iterations in which no stream, and no
   accumulator that moves with the loop, leaves its line (or shorter,
   see below). *)
let make_cache_pass ctx (plan : fast_plan) sim =
  let streams = plan.fp_streams and sp = plan.fp_spill in
  let n_streams = Array.length streams in
  let k = sp.sp_k in
  let l1 = ctx.l1 and lb = ctx.lb1 in
  (* a stream that leaves its line on every iteration makes every span
     one iteration long *)
  let one_line_spans =
    Array.exists (fun s -> abs s.str_bstride >= lb) streams
    || (k > 0 && abs sp.sp_bstride >= lb)
  in
  fun () ->
    let bases = ctx.bases in
    for i = 0 to n_streams - 1 do
      let s = streams.(i) in
      s.str_addr <- bases.(s.str_slot) + (s.str_base.Loopenv.b_at * elem_bytes)
    done;
    sp.sp_addr <- bases.(sp.sp_slot) + (sp.sp_base.Loopenv.b_at * elem_bytes);
    if one_line_spans then replay ctx streams sp 0 sim
    else begin
      let x = ref 0 in
      while !x < sim do
        let m = ref (sim - !x) in
        for i = 0 to n_streams - 1 do
          let s = streams.(i) in
          let r = line_run lb s.str_bstride s.str_shift s.str_addr in
          if r < !m then m := r
        done;
        (if k > 0 then
           let r = line_run lb sp.sp_bstride sp.sp_shift sp.sp_addr in
           if r < !m then m := r);
        (* iteration one, exactly *)
        replay ctx streams sp 0 1;
        (* The other m-1 iterations touch only lines iteration one
           touched, plus the accumulator's line if a spill fires among
           them.  When all of those are resident, every one of these
           accesses hits and nothing is installed, so each line's
           recency is decided by its last touch: per stream, one bulk
           touch of m-1 hits; for the accumulator, two hits per spill,
           ordered before the streams (its last spill precedes the last
           iteration's streams) unless that last spill falls on the
           span's last iteration, which then runs exactly after them.
           When spills would fire before the last iteration but the
           accumulator's line is not known resident (its cursor last
           touched another line, or iteration one evicted it), the span
           ends at its first spill instead, which runs exactly.  If a
           stream's line did not survive iteration one, the rest replays
           element-wise. *)
        if !m > 1 then begin
          (* spills among the other iterations: the first at [k - tick] *)
          let first = if k > 0 then k - sp.sp_tick else max_int in
          if first < !m - 1 && not (Cache.resident l1 sp.sp_cur sp.sp_addr)
          then m := first + 1;
          let n = !m - 1 in
          let later =
            if first > n then 0
            else if n - first < k then 1
            else 1 + ((n - first) / k)
          in
          let tail = later > 0 && first + ((later - 1) * k) = n in
          let inner = if tail then later - 1 else later in
          let hits = ref true in
          for i = 0 to n_streams - 1 do
            let s = streams.(i) in
            if not (Cache.resident l1 s.str_cur s.str_addr) then hits := false
          done;
          if !hits then begin
            if inner > 0 then begin
              Cache.touch_at l1 sp.sp_cur sp.sp_addr (2 * inner);
              sp.sp_count <- sp.sp_count + inner
            end;
            for i = 0 to n_streams - 1 do
              let s = streams.(i) in
              Cache.touch_at l1 s.str_cur s.str_addr n
            done;
            if tail then spill_at ctx sp (sp.sp_addr + (sp.sp_bstride * n));
            if k > 0 then sp.sp_tick <- sp.sp_tick + n - (later * k)
          end
          else replay ctx streams sp 1 !m
        end;
        let m = !m in
        for i = 0 to n_streams - 1 do
          let s = streams.(i) in
          s.str_addr <- s.str_addr + (s.str_bstride * m)
        done;
        sp.sp_addr <- sp.sp_addr + (sp.sp_bstride * m);
        x := !x + m
      done
    end

(* The innermost run of a fast group: the value pass (independent of
   the cache model), then the cache pass. *)
let make_fast_runner ctx (plan : fast_plan) sim =
  let values = plan.fp_inner sim and cache_pass = make_cache_pass ctx plan sim in
  fun env ->
    values env;
    cache_pass ()

(* The counters of [points] iterations of a fast group, in bulk, with
   the spills counted since the last flush. *)
let flush ctx (plan : fast_plan) ~points =
  let c = ctx.c and sp = plan.fp_spill in
  let fp = float_of_int points in
  Array.iter
    (fun fl ->
      c.loads <- c.loads +. (fl.fl_d_loads *. fp);
      c.stores <- c.stores +. (fl.fl_d_stores *. fp);
      c.insts <- c.insts +. (fl.fl_d_insts *. fp);
      c.flops <- c.flops +. (fl.fl_d_flops *. fp))
    plan.fp_leaves;
  let spills = sp.sp_count in
  sp.sp_count <- 0;
  if spills > 0 then begin
    let ns = float_of_int spills in
    c.loads <- c.loads +. (sp.sp_cost *. ns);
    c.stores <- c.stores +. (sp.sp_cost *. ns);
    c.insts <- c.insts +. (2.0 *. sp.sp_cost *. ns)
  end;
  c.l1_accesses <-
    c.l1_accesses +. float_of_int ((plan.fp_d_l1acc * points) + (2 * spills))

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
  let loop (l : Program.loop) sim (fb : unit -> unit) =
    let slot = Loopenv.var_slot vm l.Program.v in
    fun () ->
      let env = ctx.env in
      for x = 0 to sim - 1 do
        env.(slot) <- x;
        fb ()
      done
  in
  (* The perfect chain of loops from [s] down — each loop's body exactly
     the next loop — as (loop, simulated extent) pairs innermost first,
     with its body and the enclosing list and vectorization context
     there. *)
  let rec descend enclosing vc chain = function
    | Afor (l, sim, b) ->
        let vc =
          if l.Program.kind = Program.Vectorized then
            { vvar = Some l.Program.v; lanes = machine.Machine.lanes }
          else vc
        in
        descend (l :: enclosing) vc ((l, sim) :: chain) b
    | b -> (enclosing, vc, chain, b)
  in
  (* enclosing: innermost-first loop list; vc: vectorization context *)
  let rec comp (enclosing : Program.loop list) (vc : vec_ctx) = function
    | Afor _ as s -> (
        match descend enclosing vc [] s with
        | enclosing', vc', (l, sim) :: outer, b when all_leaves b ->
            (* a leaf group: batched with the longest run of loops above
               it that every access is affine in (its chain), the loops
               above that run as plain loops around it *)
            let plan =
              if fast then fast_plan_of vm slots vc' ctx machine enclosing' l b
              else None
            in
            let group, rest =
              match plan with
              | Some plan ->
                  ctx.es.fast_groups <- ctx.es.fast_groups + 1;
                  let rec climb levels = function
                    | ((o : Program.loop), osim) :: os as rest -> (
                        match
                          Loopenv.level_of vm plan.fp_bases o.Program.v osim
                        with
                        | Some lv -> climb (lv :: levels) os
                        | None -> (levels, rest))
                    | [] -> (levels, [])
                  in
                  let levels, rest = climb [] outer in
                  let levels = Array.of_list levels in
                  let vslot = Loopenv.var_slot vm l.Program.v in
                  let run =
                    Loopenv.chain ~vslot plan.fp_bases levels
                      (make_fast_runner ctx plan sim)
                  in
                  let runs = Loopenv.chain_points levels in
                  let points = runs * sim in
                  ( (fun () ->
                      ctx.es.fast_runs <- ctx.es.fast_runs + runs;
                      run ctx.env;
                      flush ctx plan ~points),
                    rest )
              | None ->
                  ctx.es.scalar_groups <- ctx.es.scalar_groups + 1;
                  let fl = loop l sim (comp enclosing' vc' b) in
                  ( (fun () ->
                      ctx.es.scalar_runs <- ctx.es.scalar_runs + 1;
                      fl ()),
                    outer )
            in
            List.fold_left (fun f (o, osim) -> loop o osim f) group rest
        | enclosing', vc', chain, b ->
            List.fold_left
              (fun f (o, osim) -> loop o osim f)
              (comp enclosing' vc' b) chain)
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
  (* engine-stats snapshot for delta publication, taken before [compile]
     counts the groups; [es] itself stands in when metrics are off so
     the disabled path allocates nothing *)
  let es0 =
    if Alt_obs.Metrics.enabled () then
      { fast_groups = es.fast_groups; scalar_groups = es.scalar_groups;
        fast_runs = es.fast_runs; scalar_runs = es.scalar_runs }
    else es
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
