(* The access and leaf compiler shared by every executor of lowered
   programs.

   The simulator's interpreter (lib/machine/profiler.ml) and the exec
   backend's kernels (lib/exec/kernel.ml) both run a loop nest over a
   dense integer environment: every loop variable owns one slot, and each
   loop writes its current value there.  This module assigns the slots and
   compiles index expressions, conditions and access offsets against them.

   An access offset [Σᵢ idxᵢ·strideᵢ] is read from [Ixexpr]'s linear
   normal form and compiled to a dot product [c0 + Σⱼ kⱼ·env.(sⱼ)] over
   the distinct loop variables: no closure is called for the affine part.
   Only the atoms that are not affine — floor-division, modulo, min/max
   and products of variables — keep a closure tree, which is added on top.
   Integer arithmetic is exact, so the compiled offset equals the
   expression's value under every environment (test/test_ir.ml checks it
   against [Ixexpr.eval]).

   Both executors batch innermost loops over hoisted bases, one per
   distinct access, and run each batched loop with its perfect chain of
   enclosing loops; the chain walker and the leaf values below are the
   ones both use.  The simulator adds only its cache pass and counters,
   and declines some groups the kernels run (loads under a select,
   several Reduce leaves). *)

module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr
module Layout = Alt_tensor.Layout

(* [env] is the environment [alloc_env] allocated last: the leaf values
   below read it at run time, for the select conditions they evaluate. *)
type t = {
  tbl : (int, int) Hashtbl.t;
  mutable next : int;
  mutable env : int array;
}

let create () = { tbl = Hashtbl.create 64; next = 0; env = [||] }

let var_slot vm (v : Var.t) =
  match Hashtbl.find_opt vm.tbl (Var.id v) with
  | Some i -> i
  | None ->
      let i = vm.next in
      vm.next <- i + 1;
      Hashtbl.replace vm.tbl (Var.id v) i;
      i

let alloc_env vm =
  let env = Array.make (max 1 vm.next) 0 in
  vm.env <- env;
  env

(* Closure tree for the non-affine residue of an index. *)
let rec compile_ix vm (e : Ixexpr.t) : int array -> int =
  match e with
  | Ixexpr.Const n -> fun _ -> n
  | Ixexpr.Var v ->
      let i = var_slot vm v in
      fun env -> env.(i)
  | Ixexpr.Add (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> fa env + fb env
  | Ixexpr.Sub (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> fa env - fb env
  | Ixexpr.Mul (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> fa env * fb env
  | Ixexpr.Div (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> Ixexpr.fdiv (fa env) (fb env)
  | Ixexpr.Mod (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> Ixexpr.fmod (fa env) (fb env)
  | Ixexpr.Min (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> min (fa env) (fb env)
  | Ixexpr.Max (a, b) ->
      let fa = compile_ix vm a and fb = compile_ix vm b in
      fun env -> max (fa env) (fb env)

type offset = {
  k0 : int;
  slots : int array;
  coeffs : int array;
  resid : (int array -> int) option;
  resid_slots : int array;
}

(* [Σᵢ exprsᵢ·scalesᵢ]: affine terms merged per slot (zero sums dropped),
   residues summed into one closure tree. *)
let compile_sum vm (exprs : Ixexpr.t array) (scales : int array) : offset =
  let k0 = ref 0 and terms = ref [] and resid = ref [] in
  let resid_slots = ref [] in
  Array.iteri
    (fun i e ->
      let s = scales.(i) in
      let k, vars, rs = Ixexpr.affine e in
      k0 := !k0 + (k * s);
      List.iter
        (fun (v, c) ->
          let j = var_slot vm v in
          let prev = Option.value ~default:0 (List.assoc_opt j !terms) in
          terms := (j, prev + (c * s)) :: List.remove_assoc j !terms)
        vars;
      List.iter
        (fun r ->
          Var.Set.iter
            (fun v ->
              let j = var_slot vm v in
              if not (List.mem j !resid_slots) then
                resid_slots := j :: !resid_slots)
            (Ixexpr.vars r);
          resid := Ixexpr.mul (Ixexpr.const s) r :: !resid)
        rs)
    exprs;
  let terms = List.filter (fun (_, c) -> c <> 0) !terms in
  {
    k0 = !k0;
    slots = Array.of_list (List.map fst terms);
    coeffs = Array.of_list (List.map snd terms);
    resid =
      (match !resid with
      | [] -> None
      | rs -> Some (compile_ix vm (Ixexpr.sum rs)));
    resid_slots = Array.of_list !resid_slots;
  }

let eval o env =
  let acc = ref o.k0 in
  let slots = o.slots and coeffs = o.coeffs in
  for j = 0 to Array.length slots - 1 do
    acc := !acc + (coeffs.(j) * env.(slots.(j)))
  done;
  match o.resid with None -> !acc | Some f -> !acc + f env

let slot_stride o j =
  if Array.mem j o.resid_slots then None
  else begin
    let s = ref 0 in
    Array.iteri (fun i sj -> if sj = j then s := o.coeffs.(i)) o.slots;
    Some !s
  end

let compile_index vm e = compile_sum vm [| e |] [| 1 |]

let compile_offset vm (slots : Program.slot array) (a : Program.access) =
  compile_sum vm a.Program.idx
    (Layout.phys_strides slots.(a.Program.slot).Program.layout)

(* Each comparison compiles as the sign of one difference [a - b]. *)
let rec compile_cond vm (c : Sexpr.cond) : int array -> bool =
  match c with
  | Sexpr.Cmp (op, a, b) -> (
      let d = compile_index vm (Ixexpr.sub a b) in
      match op with
      | Sexpr.Clt -> fun env -> eval d env < 0
      | Sexpr.Cle -> fun env -> eval d env <= 0
      | Sexpr.Cgt -> fun env -> eval d env > 0
      | Sexpr.Cge -> fun env -> eval d env >= 0
      | Sexpr.Ceq -> fun env -> eval d env = 0)
  | Sexpr.And (a, b) ->
      let fa = compile_cond vm a and fb = compile_cond vm b in
      fun env -> fa env && fb env
  | Sexpr.Or (a, b) ->
      let fa = compile_cond vm a and fb = compile_cond vm b in
      fun env -> fa env || fb env

(* ------------------------------------------------------------------ *)
(* Hoisted bases and the perfect-chain walker                         *)
(* ------------------------------------------------------------------ *)

(* One distinct access of a batched innermost loop: its offset, the
   offset's stride in the innermost variable, and the offset with that
   variable at 0 under the current values of the loops above. *)
type base = { b_off : offset; b_stride : int; mutable b_at : int }

let base off vslot =
  match slot_stride off vslot with
  | Some s -> Some { b_off = off; b_stride = s; b_at = 0 }
  | None -> None

(* One loop of a perfect chain above a batched innermost loop: its slot,
   its extent, and the bases that move with its variable, each with its
   stride. *)
type level = {
  lv_slot : int;
  lv_extent : int;
  lv_bases : base array;
  lv_strides : int array;
}

let level_of vm (bases : base array) (v : Var.t) extent =
  let slot = var_slot vm v in
  let moving = ref [] in
  let affine =
    Array.for_all
      (fun b ->
        match slot_stride b.b_off slot with
        | None -> false
        | Some 0 -> true
        | Some s ->
            moving := (b, s) :: !moving;
            true)
      bases
  in
  if not affine then None
  else
    let moving = Array.of_list (List.rev !moving) in
    Some
      { lv_slot = slot;
        lv_extent = extent;
        lv_bases = Array.map fst moving;
        lv_strides = Array.map snd moving }

let chain_points levels =
  Array.fold_left (fun n lv -> n * lv.lv_extent) 1 levels

(* Each level writes its variable, runs the level below, and advances
   the bases that move with it; when its loop ends it rewinds them, so
   every iteration of the level above starts from the bases a fresh
   evaluation would give.  On entry every base is evaluated once, with
   the innermost variable and every chain variable at 0. *)
let chain ~vslot (bases : base array) (levels : level array)
    (inner : int array -> unit) =
  let wrap lv inner =
    let slot = lv.lv_slot and ext = lv.lv_extent in
    let moving = lv.lv_bases and strides = lv.lv_strides in
    let nb = Array.length moving in
    fun env ->
      for x = 0 to ext - 1 do
        env.(slot) <- x;
        inner env;
        for i = 0 to nb - 1 do
          let b = moving.(i) in
          b.b_at <- b.b_at + strides.(i)
        done
      done;
      for i = 0 to nb - 1 do
        let b = moving.(i) in
        b.b_at <- b.b_at - (ext * strides.(i))
      done
  in
  let body = Array.fold_right wrap levels inner in
  let n_bases = Array.length bases in
  let slots = Array.map (fun lv -> lv.lv_slot) levels in
  fun env ->
    env.(vslot) <- 0;
    for i = 0 to Array.length slots - 1 do
      env.(slots.(i)) <- 0
    done;
    for i = 0 to n_bases - 1 do
      let b = bases.(i) in
      b.b_at <- eval b.b_off env
    done;
    body env

(* ------------------------------------------------------------------ *)
(* Leaf values: the value half of a batched leaf group                *)
(* ------------------------------------------------------------------ *)

(* x-indexed evaluator: every load reads its hoisted base, moved by
   [b_stride * x] inside the innermost loop.  Its structure is the scalar
   interpreter's — the same combine functions applied in the same order —
   so float results are bit-identical.  Select conditions read the loop
   environment at run time. *)
let rec compile_value vm bufs (base_of : Program.access -> base)
    (e : Program.pexpr) : int -> float =
  match e with
  | Program.Pconst f -> fun _ -> f
  | Program.Pload a ->
      let b = base_of a in
      let buf = bufs.(a.Program.slot) and stride = b.b_stride in
      fun x -> buf.(b.b_at + (stride * x))
  | Program.Pbin (op, a, b) ->
      let fa = compile_value vm bufs base_of a
      and fb = compile_value vm bufs base_of b in
      let g = Sexpr.apply_binop op in
      fun x -> g (fa x) (fb x)
  | Program.Pun (op, a) ->
      let fa = compile_value vm bufs base_of a in
      let g = Sexpr.apply_unop op in
      fun x -> g (fa x)
  | Program.Pselect (c, a, b) ->
      let fc = compile_cond vm c
      and fa = compile_value vm bufs base_of a
      and fb = compile_value vm bufs base_of b in
      fun x -> if fc vm.env then fa x else fb x

(* One leaf of a group: its iteration at x (for the multi-leaf
   interleave), and its whole loop of n iterations. *)
type leaf = { step : int -> unit; run : int -> unit }

(* The multiply-accumulate leaf [c += a * b] every conv/matmul reduction
   lowers to, as tight array loops.  A scalar accumulator (stride 0) is
   kept in a register over a 4x unrolled loop that still adds in one
   sequential chain; a moving one hoists a loop-invariant operand.  Both
   shortcuts need operands that cannot alias the accumulator: a deferred
   store, or a hoisted read, would miss the updates in between. *)
let mac_leaf bufs base_of (c : Program.access) (la : Program.access)
    (lb : Program.access) =
  let pc = base_of c and pa = base_of la and pb = base_of lb in
  let ba = bufs.(la.Program.slot)
  and bb = bufs.(lb.Program.slot)
  and buf = bufs.(c.Program.slot) in
  let sa = pa.b_stride and sb = pb.b_stride and sc = pc.b_stride in
  let alias_a = la.Program.slot = c.Program.slot
  and alias_b = lb.Program.slot = c.Program.slot in
  let step x =
    let o = pc.b_at + (sc * x) in
    buf.(o) <- buf.(o) +. (ba.(pa.b_at + (sa * x)) *. bb.(pb.b_at + (sb * x)))
  in
  let run n =
    let oa = pa.b_at and ob = pb.b_at and oc = pc.b_at in
    if sc = 0 && (not alias_a) && not alias_b then begin
      let acc = ref buf.(oc) in
      let n4 = n - (n land 3) in
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
      done;
      buf.(oc) <- !acc
    end
    else if sa = 0 && not alias_a then begin
      let va = ba.(oa) in
      for x = 0 to n - 1 do
        let o = oc + (sc * x) in
        buf.(o) <- buf.(o) +. (va *. bb.(ob + (sb * x)))
      done
    end
    else if sb = 0 && not alias_b then begin
      let vb = bb.(ob) in
      for x = 0 to n - 1 do
        let o = oc + (sc * x) in
        buf.(o) <- buf.(o) +. (ba.(oa + (sa * x)) *. vb)
      done
    end
    else
      for x = 0 to n - 1 do
        let o = oc + (sc * x) in
        buf.(o) <- buf.(o) +. (ba.(oa + (sa * x)) *. bb.(ob + (sb * x)))
      done
  in
  { step; run }

type leaf_group = {
  lg_bases : base array;
  lg_base : Program.access -> base;
  lg_inner : int -> int array -> unit;
}

let leaf_group vm (slots : Program.slot array) (bufs : float array array)
    (v : Var.t) (stmts : Program.stmt list) : leaf_group option =
  let exception Fallback in
  let vslot = var_slot vm v in
  let hoisted = ref [] in
  (* one hoisted base per distinct access *)
  let base_of (a : Program.access) =
    match List.assoc_opt a !hoisted with
    | Some b -> b
    | None -> (
        match base (compile_offset vm slots a) vslot with
        | Some b ->
            hoisted := (a, b) :: !hoisted;
            b
        | None -> raise Fallback)
  in
  (* the whole loop from the step; the loop variable's slot tracks x for
     the select conditions *)
  let generic step =
    let run n =
      let env = vm.env in
      for x = 0 to n - 1 do
        env.(vslot) <- x;
        step x
      done
    in
    { step; run }
  in
  let compile_leaf (s : Program.stmt) : leaf =
    match s with
    | Program.Store (a, e) -> (
        let fe = compile_value vm bufs base_of e in
        let b = base_of a in
        let buf = bufs.(a.Program.slot) and stride = b.b_stride in
        let step x = buf.(b.b_at + (stride * x)) <- fe x in
        match e with
        | Program.Pconst cst ->
            (* tile-init loops: no closure call per element *)
            let run n =
              let at = b.b_at in
              if stride = 1 then Array.fill buf at n cst
              else
                for x = 0 to n - 1 do
                  buf.(at + (stride * x)) <- cst
                done
            in
            { step; run }
        | _ -> generic step)
    | Program.Reduce
        ( a,
          Program.Rsum,
          Program.Pbin (Sexpr.Bmul, Program.Pload la, Program.Pload lb) ) ->
        mac_leaf bufs base_of a la lb
    | Program.Reduce (a, r, e) ->
        let b = base_of a in
        let buf = bufs.(a.Program.slot) and stride = b.b_stride in
        let combine =
          match r with Program.Rsum -> Float.add | Program.Rmax -> Float.max
        in
        let fe = compile_value vm bufs base_of e in
        generic (fun x ->
            let v = fe x in
            let o = b.b_at + (stride * x) in
            buf.(o) <- combine buf.(o) v)
    | Program.For _ | Program.Block _ -> raise Fallback
  in
  match Array.of_list (List.map compile_leaf stmts) with
  | [||] -> None
  | leaves ->
      let n_leaves = Array.length leaves in
      (* several leaves interleave per iteration: a later leaf may read
         what an earlier one wrote at the same iteration *)
      let inner n =
        if n_leaves = 1 then
          let run = leaves.(0).run in
          fun _ -> run n
        else fun env ->
          for x = 0 to n - 1 do
            env.(vslot) <- x;
            for i = 0 to n_leaves - 1 do
              leaves.(i).step x
            done
          done
      in
      let hoisted = !hoisted in
      Some
        { lg_bases = Array.of_list (List.rev_map snd hoisted);
          lg_base = (fun a -> List.assoc a hoisted);
          lg_inner = inner }
  | exception Fallback -> None

(* Element stride of loop variable [v] through the flattened offset of
   [a]; [None] when [v] occurs under a non-affine atom. *)
let affine_stride (slots : Program.slot array) (a : Program.access)
    (v : Var.t) : int option =
  let strides = Layout.phys_strides slots.(a.Program.slot).Program.layout in
  let total = ref (Some 0) in
  Array.iteri
    (fun i e ->
      match (!total, Ixexpr.coeff_of e v) with
      | Some t, Some c -> total := Some (t + (c * strides.(i)))
      | _ -> total := None)
    a.Program.idx;
  !total
