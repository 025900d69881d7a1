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
   [Parallel] loops run serially, like any other loop: the simulator's
   machine model is what prices [Schedule.parallel]. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Program = Alt_ir.Program
module Sexpr = Alt_ir.Sexpr
module Loopenv = Alt_ir.Loopenv
module Lower = Alt_ir.Lower

type stats = {
  mutable macro_groups : int;
  mutable generic_groups : int;
  mutable macro_runs : int;
  mutable generic_runs : int;
}

type t = {
  prog : Program.t;
  bufs : float array array;
  run : unit -> unit;
  stats : stats;
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

let compile (p : Program.t) ~(bufs : float array array) : t =
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
  let ctx = { env = [||]; bufs } in
  let st =
    { macro_groups = 0; generic_groups = 0; macro_runs = 0; generic_runs = 0 }
  in
  let vm = Loopenv.create () in
  let run = compile_stmts ctx st vm p.Program.slots p.Program.body in
  ctx.env <- Loopenv.alloc_env vm;
  { prog = p; bufs; run; stats = st }

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
