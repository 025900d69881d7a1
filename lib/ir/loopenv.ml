(* The access compiler shared by every executor of lowered programs.

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
   enclosing loops; the chain walker below is the one both use. *)

module Var = Alt_tensor.Var
module Ixexpr = Alt_tensor.Ixexpr
module Layout = Alt_tensor.Layout

type t = { tbl : (int, int) Hashtbl.t; mutable next : int }

let create () = { tbl = Hashtbl.create 64; next = 0 }

let var_slot vm (v : Var.t) =
  match Hashtbl.find_opt vm.tbl (Var.id v) with
  | Some i -> i
  | None ->
      let i = vm.next in
      vm.next <- i + 1;
      Hashtbl.replace vm.tbl (Var.id v) i;
      i

let alloc_env vm = Array.make (max 1 vm.next) 0

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
