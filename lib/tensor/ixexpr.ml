(* Symbolic integer index expressions.

   Accesses such as [Inp[n][oh*2 + rh][ow*2 + rw][i]] are represented
   symbolically so that layout primitives (Table 1 of the paper and the
   unfold rule, Eq. (1)) can rewrite them, and so that the lowering pass can
   substitute the inverse output-layout mapping into operator bodies.

   Division is floor division and modulo returns a value in [0, divisor)
   (divisors are always positive constants in this code base).  With that
   convention the identity floor((c*q + r) / c) = q + floor(r / c) holds for
   all integers, which the simplifier relies on.

   The simplifier normalizes an expression to a linear combination
   [const + sum coeff * atom] where atoms are variables, floor-divisions,
   modulos, min/max, or opaque products.  Combined with interval analysis
   over variable bounds it proves facts like
   [(ho*ht + hi) / ht = ho] when [0 <= hi < ht], which is exactly what turns
   the mechanical Eq. (1) rewrite into the tidy tiled indices of Fig. 3. *)

type t =
  | Const of int
  | Var of Var.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t (* floor division, positive constant divisor expected *)
  | Mod of t * t (* remainder in [0, divisor) *)
  | Min of t * t
  | Max of t * t

type bounds = Var.t -> (int * int) option
(* Inclusive variable ranges; [None] means unknown. *)

let no_bounds : bounds = fun _ -> None

(* ------------------------------------------------------------------ *)
(* Integer helpers: floor division and matching modulo.               *)
(* ------------------------------------------------------------------ *)

let fdiv a b =
  if b <= 0 then invalid_arg "Ixexpr.fdiv: non-positive divisor";
  if a >= 0 then a / b else -((-a + b - 1) / b)

let fmod a b = a - (fdiv a b * b)

(* ------------------------------------------------------------------ *)
(* Smart constructors with constant folding.                          *)
(* ------------------------------------------------------------------ *)

let const n = Const n
let var v = Var v
let zero = Const 0

let add a b =
  match (a, b) with
  | Const 0, e | e, Const 0 -> e
  | Const x, Const y -> Const (x + y)
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | e, Const 0 -> e
  | Const x, Const y -> Const (x - y)
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, e | e, Const 1 -> e
  | Const x, Const y -> Const (x * y)
  | _ -> Mul (a, b)

let div a b =
  match (a, b) with
  | e, Const 1 -> e
  | Const x, Const y when y > 0 -> Const (fdiv x y)
  | _ -> Div (a, b)

let mod_ a b =
  match (a, b) with
  | _, Const 1 -> Const 0
  | Const x, Const y when y > 0 -> Const (fmod x y)
  | _ -> Mod (a, b)

let min_ a b =
  match (a, b) with Const x, Const y -> Const (min x y) | _ -> Min (a, b)

let max_ a b =
  match (a, b) with Const x, Const y -> Const (max x y) | _ -> Max (a, b)

let rec sum = function [] -> zero | [ e ] -> e | e :: tl -> add e (sum tl)

(* ------------------------------------------------------------------ *)
(* Traversals.                                                        *)
(* ------------------------------------------------------------------ *)

let rec vars_fold f acc = function
  | Const _ -> acc
  | Var v -> f acc v
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) ->
      vars_fold f (vars_fold f acc a) b

let vars e = vars_fold (fun s v -> Var.Set.add v s) Var.Set.empty e

let rec subst (f : Var.t -> t option) e =
  match e with
  | Const _ -> e
  | Var v -> ( match f v with Some e' -> e' | None -> e)
  | Add (a, b) -> add (subst f a) (subst f b)
  | Sub (a, b) -> sub (subst f a) (subst f b)
  | Mul (a, b) -> mul (subst f a) (subst f b)
  | Div (a, b) -> div (subst f a) (subst f b)
  | Mod (a, b) -> mod_ (subst f a) (subst f b)
  | Min (a, b) -> min_ (subst f a) (subst f b)
  | Max (a, b) -> max_ (subst f a) (subst f b)

let rec eval (env : Var.t -> int) = function
  | Const n -> n
  | Var v -> env v
  | Add (a, b) -> eval env a + eval env b
  | Sub (a, b) -> eval env a - eval env b
  | Mul (a, b) -> eval env a * eval env b
  | Div (a, b) -> fdiv (eval env a) (eval env b)
  | Mod (a, b) -> fmod (eval env a) (eval env b)
  | Min (a, b) -> min (eval env a) (eval env b)
  | Max (a, b) -> max (eval env a) (eval env b)

let rec pp ppf = function
  | Const n -> Fmt.int ppf n
  | Var v -> Fmt.string ppf (Var.name v)
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp a pp b
  | Mod (a, b) -> Fmt.pf ppf "(%a %% %a)" pp a pp b
  | Min (a, b) -> Fmt.pf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Fmt.pf ppf "max(%a, %a)" pp a pp b

let to_string e = Fmt.str "%a" pp e

(* ------------------------------------------------------------------ *)
(* Normal form: const + sum of coeff * atom.                          *)
(* ------------------------------------------------------------------ *)

type atom =
  | Avar of Var.t
  | Adiv of lin * int
  | Amod of lin * int
  | Amin of lin * lin
  | Amax of lin * lin
  | Aopaque of t (* non-affine residue, e.g. variable * variable *)

and lin = { terms : (atom * int) list; k : int }

let rec compare_atom a b =
  match (a, b) with
  | Avar x, Avar y -> Var.compare x y
  | Avar _, _ -> -1
  | _, Avar _ -> 1
  | Adiv (l1, c1), Adiv (l2, c2) ->
      let c = Int.compare c1 c2 in
      if c <> 0 then c else compare_lin l1 l2
  | Adiv _, _ -> -1
  | _, Adiv _ -> 1
  | Amod (l1, c1), Amod (l2, c2) ->
      let c = Int.compare c1 c2 in
      if c <> 0 then c else compare_lin l1 l2
  | Amod _, _ -> -1
  | _, Amod _ -> 1
  | Amin (a1, b1), Amin (a2, b2) | Amax (a1, b1), Amax (a2, b2) ->
      let c = compare_lin a1 a2 in
      if c <> 0 then c else compare_lin b1 b2
  | Amin _, _ -> -1
  | _, Amin _ -> 1
  | Amax _, Aopaque _ -> -1
  | Aopaque _, Amax _ -> 1
  | Aopaque e1, Aopaque e2 -> Stdlib.compare e1 e2

and compare_lin l1 l2 =
  let c = Int.compare l1.k l2.k in
  if c <> 0 then c
  else
    List.compare
      (fun (a1, c1) (a2, c2) ->
        let c = compare_atom a1 a2 in
        if c <> 0 then c else Int.compare c1 c2)
      l1.terms l2.terms

let lin_const k = { terms = []; k }

let lin_add l1 l2 =
  let rec merge t1 t2 =
    match (t1, t2) with
    | [], t | t, [] -> t
    | (a1, c1) :: r1, (a2, c2) :: r2 ->
        let c = compare_atom a1 a2 in
        if c < 0 then (a1, c1) :: merge r1 t2
        else if c > 0 then (a2, c2) :: merge t1 r2
        else
          let s = c1 + c2 in
          if s = 0 then merge r1 r2 else (a1, s) :: merge r1 r2
  in
  { terms = merge l1.terms l2.terms; k = l1.k + l2.k }

let lin_scale c l =
  if c = 0 then lin_const 0
  else { terms = List.map (fun (a, x) -> (a, x * c)) l.terms; k = l.k * c }

let lin_is_const l = l.terms = []

(* Interval arithmetic over the normal form. *)
let rec range_of_lin (b : bounds) l : (int * int) option =
  List.fold_left
    (fun acc (a, c) ->
      match (acc, range_of_atom b a) with
      | Some (lo, hi), Some (alo, ahi) ->
          if c >= 0 then Some (lo + (c * alo), hi + (c * ahi))
          else Some (lo + (c * ahi), hi + (c * alo))
      | _ -> None)
    (Some (l.k, l.k))
    l.terms

and range_of_atom b = function
  | Avar v -> b v
  | Adiv (l, c) -> (
      match range_of_lin b l with
      | Some (lo, hi) -> Some (fdiv lo c, fdiv hi c)
      | None -> None)
  | Amod (_, c) -> Some (0, c - 1)
  | Amin (l1, l2) -> (
      match (range_of_lin b l1, range_of_lin b l2) with
      | Some (lo1, hi1), Some (lo2, hi2) -> Some (min lo1 lo2, min hi1 hi2)
      | _ -> None)
  | Amax (l1, l2) -> (
      match (range_of_lin b l1, range_of_lin b l2) with
      | Some (lo1, hi1), Some (lo2, hi2) -> Some (max lo1 lo2, max hi1 hi2)
      | _ -> None)
  | Aopaque _ -> None

(* Splits [l] into (q, r) such that l = c*q + r and r collects the terms
   whose coefficient is not divisible by c, plus the constant remainder. *)
let split_divisible c l =
  let qs, rs =
    List.partition_map
      (fun (a, x) ->
        if x mod c = 0 then Left (a, x / c) else Right (a, x))
      l.terms
  in
  let qk = fdiv l.k c in
  let rk = l.k - (qk * c) in
  ({ terms = qs; k = qk }, { terms = rs; k = rk })

let rec to_lin (b : bounds) (e : t) : lin =
  match e with
  | Const n -> lin_const n
  | Var v -> { terms = [ (Avar v, 1) ]; k = 0 }
  | Add (x, y) -> lin_add (to_lin b x) (to_lin b y)
  | Sub (x, y) -> lin_add (to_lin b x) (lin_scale (-1) (to_lin b y))
  | Mul (x, y) -> (
      let lx = to_lin b x and ly = to_lin b y in
      match (lin_is_const lx, lin_is_const ly) with
      | true, _ -> lin_scale lx.k ly
      | _, true -> lin_scale ly.k lx
      | false, false -> { terms = [ (Aopaque e, 1) ]; k = 0 })
  | Div (x, y) -> (
      let ly = to_lin b y in
      if not (lin_is_const ly && ly.k > 0) then
        { terms = [ (Aopaque e, 1) ]; k = 0 }
      else
        let c = ly.k in
        let lx = to_lin b x in
        let q, r = split_divisible c lx in
        (* x = c*q + r  ==>  x/c = q + floor(r/c)  (valid for all ints). *)
        match range_of_lin b r with
        | Some (lo, hi) when fdiv lo c = fdiv hi c ->
            lin_add q (lin_const (fdiv lo c))
        | _ ->
            if lin_is_const r then lin_add q (lin_const (fdiv r.k c))
            else lin_add q { terms = [ (Adiv (r, c), 1) ]; k = 0 })
  | Mod (x, y) -> (
      let ly = to_lin b y in
      if not (lin_is_const ly && ly.k > 0) then
        { terms = [ (Aopaque e, 1) ]; k = 0 }
      else
        let c = ly.k in
        let lx = to_lin b x in
        let _, r = split_divisible c lx in
        (* x mod c = r mod c since the divisible part vanishes. *)
        match range_of_lin b r with
        | Some (lo, hi) when fdiv lo c = fdiv hi c ->
            lin_add r (lin_const (-c * fdiv lo c))
        | _ ->
            if lin_is_const r then lin_const (fmod r.k c)
            else { terms = [ (Amod (r, c), 1) ]; k = 0 })
  | Min (x, y) -> (
      let lx = to_lin b x and ly = to_lin b y in
      match (range_of_lin b lx, range_of_lin b ly) with
      | Some (_, hix), Some (loy, _) when hix <= loy -> lx
      | Some (lox, _), Some (_, hiy) when hiy <= lox -> ly
      | _ ->
          if compare_lin lx ly = 0 then lx
          else { terms = [ (Amin (lx, ly), 1) ]; k = 0 })
  | Max (x, y) -> (
      let lx = to_lin b x and ly = to_lin b y in
      match (range_of_lin b lx, range_of_lin b ly) with
      | Some (_, hix), Some (loy, _) when hix <= loy -> ly
      | Some (lox, _), Some (_, hiy) when hiy <= lox -> lx
      | _ ->
          if compare_lin lx ly = 0 then lx
          else { terms = [ (Amax (lx, ly), 1) ]; k = 0 })

let rec of_lin (l : lin) : t =
  let term (a, c) =
    let base = of_atom a in
    if c = 1 then base else mul (Const c) base
  in
  let body =
    match l.terms with
    | [] -> Const l.k
    | t0 :: rest ->
        let e = List.fold_left (fun acc t -> add acc (term t)) (term t0) rest in
        if l.k = 0 then e else add e (Const l.k)
  in
  body

and of_atom = function
  | Avar v -> Var v
  | Adiv (l, c) -> div (of_lin l) (Const c)
  | Amod (l, c) -> mod_ (of_lin l) (Const c)
  | Amin (a, b) -> min_ (of_lin a) (of_lin b)
  | Amax (a, b) -> max_ (of_lin a) (of_lin b)
  | Aopaque e -> e

let simplify ?(bounds = no_bounds) e = of_lin (to_lin bounds e)

(* The normal form split into its affine part and the rest: the constant,
   the [coeff * var] terms, and every other atom (div/mod/min/max or an
   opaque product) as one expression scaled by its coefficient.  Access
   compilers evaluate the affine part as a dot product over the loop
   environment and keep closures only for the residue. *)
let affine e =
  let l = to_lin no_bounds e in
  let vars, residue =
    List.partition_map
      (fun (a, c) ->
        match a with
        | Avar v -> Left (v, c)
        | a -> Right (of_lin { terms = [ (a, c) ]; k = 0 }))
      l.terms
  in
  (l.k, vars, residue)

let equal ?(bounds = no_bounds) a b =
  compare_lin (to_lin bounds a) (to_lin bounds b) = 0

let range ?(bounds = no_bounds) e = range_of_lin bounds (to_lin bounds e)

(* Coefficient of [v] when [e] is affine in [v] at the top level (i.e. [v]
   does not occur under div/mod/min/max/opaque atoms).  Used by the unfold
   access analysis to recognize sliding-window patterns [V*i + r]. *)
let coeff_of ?(bounds = no_bounds) e v : int option =
  let l = to_lin bounds e in
  let rec var_in_atom = function
    | Avar w -> Var.equal v w
    | Adiv (l, _) | Amod (l, _) -> var_in_lin l
    | Amin (a, b) | Amax (a, b) -> var_in_lin a || var_in_lin b
    | Aopaque e -> Var.Set.mem v (vars e)
  and var_in_lin l = List.exists (fun (a, _) -> var_in_atom a) l.terms in
  let coeff = ref 0 in
  let nested = ref false in
  List.iter
    (fun (a, c) ->
      match a with
      | Avar w when Var.equal v w -> coeff := !coeff + c
      | a -> if var_in_atom a then nested := true)
    l.terms;
  if !nested then None else Some !coeff

let drop_var ?(bounds = no_bounds) e v =
  match coeff_of ~bounds e v with
  | None -> None
  | Some c -> Some (simplify ~bounds (sub e (mul (Const c) (Var v))))
