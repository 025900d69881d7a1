(* Scalar expressions forming operator bodies.

   Tensor reads refer to input tensors *by name* with *logical* index
   expressions; the lowering pass rewrites them into physical accesses
   through each tensor's layout.  [Select] provides guarded reads (used by
   explicit padding operators and by conversion programs into padded or
   unfolded layouts). *)

module Ixexpr = Alt_tensor.Ixexpr
module Var = Alt_tensor.Var

type binop = Badd | Bsub | Bmul | Bdiv | Bmax | Bmin
type unop = Urelu | Uneg | Uexp | Utanh | Usqrt | Urecip
type cmp = Clt | Cle | Cgt | Cge | Ceq

type cond =
  | Cmp of cmp * Ixexpr.t * Ixexpr.t
  | And of cond * cond
  | Or of cond * cond

and t =
  | Load of string * Ixexpr.t array
  | Fconst of float
  | Bin of binop * t * t
  | Un of unop * t
  | Select of cond * t * t

let load name idx = Load (name, idx)
let fconst f = Fconst f
let ( +. ) a b = Bin (Badd, a, b)
let ( -. ) a b = Bin (Bsub, a, b)
let ( *. ) a b = Bin (Bmul, a, b)
let ( /. ) a b = Bin (Bdiv, a, b)
let relu a = Un (Urelu, a)
let select c a b = Select (c, a, b)

let apply_binop op a b =
  match op with
  | Badd -> Float.add a b
  | Bsub -> Float.sub a b
  | Bmul -> Float.mul a b
  | Bdiv -> Float.div a b
  | Bmax -> Float.max a b
  | Bmin -> Float.min a b

let apply_unop op a =
  match op with
  | Urelu -> Float.max 0.0 a
  | Uneg -> Float.neg a
  | Uexp -> Float.exp a
  | Utanh -> Float.tanh a
  | Usqrt -> Float.sqrt a
  | Urecip -> Float.div 1.0 a

let rec eval_cond env c =
  match c with
  | Cmp (op, a, b) -> (
      let x = Ixexpr.eval env a and y = Ixexpr.eval env b in
      match op with
      | Clt -> x < y
      | Cle -> x <= y
      | Cgt -> x > y
      | Cge -> x >= y
      | Ceq -> x = y)
  | And (a, b) -> eval_cond env a && eval_cond env b
  | Or (a, b) -> eval_cond env a || eval_cond env b

(* Evaluate with [lookup name idx] resolving tensor reads. *)
let rec eval ~(lookup : string -> Ixexpr.t array -> (Var.t -> int) -> float)
    (env : Var.t -> int) = function
  | Load (name, idx) -> lookup name idx env
  | Fconst f -> f
  | Bin (op, a, b) -> apply_binop op (eval ~lookup env a) (eval ~lookup env b)
  | Un (op, a) -> apply_unop op (eval ~lookup env a)
  | Select (c, a, b) ->
      if eval_cond env c then eval ~lookup env a else eval ~lookup env b

(* Number of arithmetic operations per evaluation (static; Select counts
   the worst branch).  Used for FLOP and instruction estimates. *)
let rec arith_ops = function
  | Load _ | Fconst _ -> 0
  | Bin (_, a, b) -> 1 + arith_ops a + arith_ops b
  | Un (_, a) -> 1 + arith_ops a
  | Select (_, a, b) -> 1 + max (arith_ops a) (arith_ops b)

let rec loads = function
  | Load (n, i) -> [ (n, i) ]
  | Fconst _ -> []
  | Bin (_, a, b) -> loads a @ loads b
  | Un (_, a) -> loads a
  | Select (_, a, b) -> loads a @ loads b

let rec map_loads f = function
  | Load (n, i) -> f n i
  | Fconst _ as e -> e
  | Bin (op, a, b) -> Bin (op, map_loads f a, map_loads f b)
  | Un (op, a) -> Un (op, map_loads f a)
  | Select (c, a, b) -> Select (c, map_loads f a, map_loads f b)

let rec map_cond_ix f = function
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | And (a, b) -> And (map_cond_ix f a, map_cond_ix f b)
  | Or (a, b) -> Or (map_cond_ix f a, map_cond_ix f b)

let pp_binop ppf op =
  Fmt.string ppf
    (match op with
    | Badd -> "+"
    | Bsub -> "-"
    | Bmul -> "*"
    | Bdiv -> "/"
    | Bmax -> "max"
    | Bmin -> "min")

let pp_unop ppf op =
  Fmt.string ppf
    (match op with
    | Urelu -> "relu"
    | Uneg -> "neg"
    | Uexp -> "exp"
    | Utanh -> "tanh"
    | Usqrt -> "sqrt"
    | Urecip -> "recip")

let rec pp_cond ppf = function
  | Cmp (op, a, b) ->
      let s =
        match op with
        | Clt -> "<"
        | Cle -> "<="
        | Cgt -> ">"
        | Cge -> ">="
        | Ceq -> "=="
      in
      Fmt.pf ppf "%a %s %a" Ixexpr.pp a s Ixexpr.pp b
  | And (a, b) -> Fmt.pf ppf "(%a && %a)" pp_cond a pp_cond b
  | Or (a, b) -> Fmt.pf ppf "(%a || %a)" pp_cond a pp_cond b

let rec pp ppf = function
  | Load (n, idx) ->
      Fmt.pf ppf "%s[%a]" n Fmt.(array ~sep:(any "][") Ixexpr.pp) idx
  | Fconst f -> Fmt.float ppf f
  | Bin (((Badd | Bsub | Bmul | Bdiv) as op), a, b) ->
      Fmt.pf ppf "(%a %a %a)" pp a pp_binop op pp b
  | Bin (op, a, b) -> Fmt.pf ppf "%a(%a, %a)" pp_binop op pp a pp b
  | Un (op, a) -> Fmt.pf ppf "%a(%a)" pp_unop op pp a
  | Select (c, a, b) -> Fmt.pf ppf "select(%a, %a, %a)" pp_cond c pp a pp b
