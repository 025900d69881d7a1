(* Exec backend differential suite (DESIGN.md §12).

   The exec backend's contract is *element-wise identical outputs* to
   the scalar interpreter: the compiled macro-kernels mirror the
   interpreter's combine functions and accumulation chains exactly, so
   every buffer is compared with [=] — no epsilon.  The suite drives
   random (layout, schedule) candidates from the tuning templates
   through both devices on all three machine profiles, the other loop
   shapes the tuner emits from NaN-poisoned buffers (compared bit for
   bit), plus directed candidates covering every layout primitive
   (split / reorder / fuse / unfold / pad), fused conv+relu chains, the
   chain runner's obligations, and the generic fallback for non-affine
   bodies.  The rank-correlation regression at the end is the
   paper's cross-validation claim in miniature: simulator latency must
   rank a seeded candidate set like real execution does (tolerance-
   gated: wall clocks on loaded CI boxes can be arbitrarily noisy, so
   the assertion is skipped when timing is demonstrably unreliable). *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Lower = Alt_ir.Lower
module Program = Alt_ir.Program
module Sexpr = Alt_ir.Sexpr
module Ops = Alt_graph.Ops
module Propagate = Alt_graph.Propagate
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler
module Runtime = Alt_machine.Runtime
module Kernel = Alt_exec.Kernel
module Exec = Alt_exec.Exec
module Rankcorr = Alt_exec.Rankcorr
module Templates = Alt_tuner.Templates
module Loopspace = Alt_tuner.Loopspace
module Measure = Alt_tuner.Measure

let machines = [ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]
let trivial shape = Layout.create shape

let conv_op =
  Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
    ~kh:3 ~kw:3 ()

let gmm_op = Ops.gmm ~name:"g" ~a:"A" ~b:"B" ~out:"Y" ~m:6 ~k:12 ~n:16 ()

let bufs_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

(* Run one program through the exec kernels and the scalar interpreter;
   every physical buffer must be bit-identical afterwards. *)
let prog_differential machine prog ~inputs =
  let be = Runtime.alloc_bufs prog ~inputs
  and bs = Runtime.alloc_bufs prog ~inputs in
  let k = Kernel.compile prog ~bufs:be in
  k.Kernel.run ();
  let _ = Profiler.run ~machine ~fast:false prog ~bufs:bs in
  Array.for_all2 bufs_equal be bs

(* One (choice, schedule) candidate, via the measurement harness's
   lowering (the exact path the tuner takes). *)
let differential ?(fused = []) machine op (choice : Propagate.choice) sched =
  let task = Measure.make_task ~fused ~machine op in
  match Measure.program_of task choice sched with
  | None -> true (* candidate does not lower; nothing to compare *)
  | Some prog -> prog_differential machine prog ~inputs:task.Measure.feeds

let prop_differential op nactions name =
  QCheck2.Test.make ~count:20 ~name
    QCheck2.Gen.(
      pair
        (array_size (return nactions) (float_bound_exclusive 1.0))
        (array_size (return 32) (float_bound_exclusive 1.0)))
    (fun (actions, point) ->
      let tpl = Option.get (Templates.for_op op) in
      let choice = tpl.Templates.decode actions in
      let space = Loopspace.of_layout op choice.Propagate.out_layout in
      let sched =
        Loopspace.decode space (Array.sub point 0 (Loopspace.dim space))
      in
      List.for_all (fun m -> differential m op choice sched) machines)

(* ------------------------------------------------------------------ *)
(* NaN-poisoned differential over every loop shape                    *)
(* ------------------------------------------------------------------ *)

(* Every element, NaN included, compared by its bits. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Inputs packed from [inputs], every other buffer NaN. *)
let poisoned_bufs prog ~inputs =
  let bufs = Runtime.alloc_bufs prog ~inputs in
  Array.iteri
    (fun i (s : Program.slot) ->
      if s.Program.role <> Program.Input then
        Array.fill bufs.(i) 0 (Array.length bufs.(i)) Float.nan)
    prog.Program.slots;
  bufs

(* The kernel runs twice and the interpreter once, both from NaN-poisoned
   buffers, and every buffer must then match bit for bit: an element the
   kernel skips stays NaN, and one it doubles (or accumulates across the
   two runs) differs from the single interpreter run.  Returns the
   kernel for its stats. *)
let poisoned_differential prog ~inputs =
  let be = poisoned_bufs prog ~inputs and bs = poisoned_bufs prog ~inputs in
  let k = Kernel.compile prog ~bufs:be in
  k.Kernel.run ();
  k.Kernel.run ();
  let _ = Profiler.run ~fast:false prog ~bufs:bs in
  (k, Array.for_all2 bits_equal be bs)

let negate_inputs =
  List.map (fun (name, a) ->
      (name, Array.map (fun v -> -.Float.abs v -. 0.5) a))

(* One small op of every loop shape the tuner emits besides c2d and gmm:
   the other conv kinds, batched matmul, the pools and the row
   reductions, Max and Sum alike. *)
let shape_ops =
  let lead = [| 6; 8 |] in
  [
    Ops.dep ~name:"dep" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~c:8 ~h:6 ~w:6 ~kh:3
      ~kw:3 ();
    Ops.grp ~name:"grp" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:8 ~o:8 ~h:6 ~w:6
      ~kh:3 ~kw:3 ~groups:2 ();
    Ops.dil ~name:"dil" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
      ~kh:3 ~kw:3 ();
    Ops.c1d ~name:"c1d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~w:12 ~kw:3
      ();
    Ops.c3d ~name:"c3d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:4 ~d:2 ~h:4
      ~w:4 ~kd:3 ~kh:3 ~kw:3 ();
    Ops.t2d ~name:"t2d" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:6 ~w:6
      ~kh:3 ~kw:3 ();
    Ops.bmm ~name:"bmm" ~a:"A" ~b:"B" ~out:"Y" ~batch:2 ~m:6 ~k:8 ~n:8 ();
    Ops.maxpool2d ~name:"maxpool2d" ~inp:"X" ~out:"Y" ~n:1 ~c:8 ~h:4 ~w:4
      ~k:3 ();
    Ops.global_avgpool ~name:"global_avgpool" ~inp:"X" ~out:"Y" ~n:1 ~c:8
      ~h:4 ~w:4 ();
    Ops.rowmax ~name:"rowmax" ~inp:"X" ~out:"Y" ~lead ~n:12 ();
    Ops.rowsum ~name:"rowsum" ~inp:"X" ~out:"Y" ~lead ~n:12 ();
    Ops.rowvar ~name:"rowvar" ~inp:"X" ~mean:"M" ~out:"Y" ~lead ~n:12 ();
  ]

(* Layouts from the op's tuning template (the layout zoo for ops without
   one), schedules from its loop space, inputs optionally all negative. *)
let prop_poisoned (op : Opdef.t) =
  let tpl = Templates.for_op op in
  let zoo = Array.of_list (Templates.layout_zoo op) in
  let nactions =
    match tpl with Some t -> Array.length t.Templates.knobs | None -> 0
  in
  let task = Measure.make_task ~machine:Machine.intel_cpu op in
  let candidate (actions, z, point, _) =
    let choice =
      match tpl with Some t -> t.Templates.decode actions | None -> zoo.(z)
    in
    let space = Loopspace.of_layout op choice.Propagate.out_layout in
    (choice, Loopspace.decode space (Array.sub point 0 (Loopspace.dim space)))
  in
  QCheck2.Test.make ~count:10
    ~name:(op.Opdef.name ^ ": two NaN-poisoned runs == interpreter")
    ~print:(fun ((_, _, _, negative) as c) ->
      let choice, sched = candidate c in
      Fmt.str "out=%a sched=%a negative=%b" Layout.pp
        choice.Propagate.out_layout Schedule.pp sched negative)
    QCheck2.Gen.(
      quad
        (array_size (return nactions) (float_bound_exclusive 1.0))
        (int_bound (Array.length zoo - 1))
        (array_size (return 32) (float_bound_exclusive 1.0))
        bool)
    (fun ((_, _, _, negative) as c) ->
      let choice, sched = candidate c in
      match Measure.program_of task choice sched with
      | None -> true
      | Some prog ->
          let feeds = task.Measure.feeds in
          let inputs = if negative then negate_inputs feeds else feeds in
          snd (poisoned_differential prog ~inputs))

(* ------------------------------------------------------------------ *)
(* Directed candidates: every layout primitive                        *)
(* ------------------------------------------------------------------ *)

(* The hand-built ALT C2D template of Section 5.1 (as in test_ir):
   split + reorder + unfold on the input, split + reorder on kernel and
   output — the layout-primitive-heavy shape the tuner actually emits. *)
let alt_template_candidate () =
  let out =
    let l = trivial [| 1; 8; 8; 8 |] in
    let l = Layout.split l ~dim:1 ~factors:[ 2; 4 ] in
    let l = Layout.split l ~dim:3 ~factors:[ 2; 4 ] in
    let l = Layout.split l ~dim:5 ~factors:[ 2; 4 ] in
    Layout.reorder l [| 0; 3; 5; 1; 4; 6; 2 |]
  in
  let inp =
    let l = trivial [| 1; 4; 10; 10 |] in
    let l = Layout.split l ~dim:1 ~factors:[ 2; 2 ] in
    let l = Layout.unfold l ~dim:3 ~tile:6 ~stride:4 in
    let l = Layout.unfold l ~dim:5 ~tile:6 ~stride:4 in
    Layout.reorder l [| 0; 3; 5; 1; 4; 6; 2 |]
  in
  let ker =
    let l = trivial [| 8; 4; 3; 3 |] in
    let l = Layout.split l ~dim:0 ~factors:[ 2; 4 ] in
    let l = Layout.split l ~dim:2 ~factors:[ 2; 2 ] in
    Layout.reorder l [| 0; 2; 4; 5; 3; 1 |]
  in
  let op =
    Ops.c2d ~name:"c" ~inp:"X" ~ker:"K" ~out:"Y" ~n:1 ~i:4 ~o:8 ~h:8 ~w:8
      ~kh:3 ~kw:3 ()
  in
  let choice =
    { Propagate.out_layout = out; in_layouts = [ ("X", inp); ("K", ker) ] }
  in
  let sched =
    Schedule.vectorize (Schedule.default ~rank:7 ~nred:3)
  in
  (op, choice, sched)

let has_prim pred (prog : Program.t) =
  Array.exists
    (fun (s : Program.slot) -> List.exists pred (Layout.prims s.Program.layout))
    prog.Program.slots

let test_unfolded_template () =
  let op, choice, sched = alt_template_candidate () in
  let task = Measure.make_task ~machine:Machine.intel_cpu op in
  let prog = Option.get (Measure.program_of task choice sched) in
  Alcotest.(check bool)
    "unfold present" true
    (has_prim (function Layout.Unfold _ -> true | _ -> false) prog);
  Alcotest.(check bool)
    "split+reorder present" true
    (has_prim (function Layout.Split _ -> true | _ -> false) prog
    && has_prim (function Layout.Reorder _ -> true | _ -> false) prog);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Machine.name ^ " exec == interpreter")
        true
        (differential m op choice sched))
    machines

let test_padded_fused () =
  (* padded input (advanced, non-invertible: inputs only) + fused relu *)
  let relu =
    Ops.relu ~name:"r" ~inp:"Y" ~out:"Z" ~shape:conv_op.Opdef.out_shape ()
  in
  let inp = Layout.pad (trivial [| 1; 4; 8; 8 |]) ~dim:2 ~lo:1 ~hi:1 in
  let choice =
    {
      Propagate.out_layout = trivial conv_op.Opdef.out_shape;
      in_layouts = [ ("X", inp) ];
    }
  in
  let sched = Schedule.default ~rank:4 ~nred:3 in
  let task =
    Measure.make_task ~fused:[ relu ] ~machine:Machine.intel_cpu conv_op
  in
  let prog = Option.get (Measure.program_of task choice sched) in
  Alcotest.(check bool)
    "pad present" true
    (has_prim (function Layout.Pad _ -> true | _ -> false) prog);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Machine.name ^ " fused+padded exec == interpreter")
        true
        (differential ~fused:[ relu ] m conv_op choice sched))
    machines

let test_fused_output_layout () =
  (* fuse on the output layout (basic primitive, invertible) *)
  let out = Layout.fuse (trivial conv_op.Opdef.out_shape) ~dim:2 ~count:2 in
  let choice = { Propagate.out_layout = out; in_layouts = [] } in
  let sched = Schedule.vectorize (Schedule.default ~rank:3 ~nred:3) in
  let task = Measure.make_task ~machine:Machine.intel_cpu conv_op in
  let prog = Option.get (Measure.program_of task choice sched) in
  Alcotest.(check bool)
    "fuse present" true
    (has_prim (function Layout.Fuse _ -> true | _ -> false) prog);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Machine.name ^ " fused-layout exec == interpreter")
        true
        (differential m conv_op choice sched))
    machines

(* ------------------------------------------------------------------ *)
(* Tile-init stores at any stride                                     *)
(* ------------------------------------------------------------------ *)

let pool_op =
  Ops.maxpool2d ~name:"p" ~inp:"X" ~out:"Y" ~n:1 ~c:8 ~h:4 ~w:4 ~k:3 ()

let nhwc_choice =
  {
    Propagate.out_layout =
      Layout.reorder (trivial pool_op.Opdef.out_shape) [| 0; 2; 3; 1 |];
    in_layouts = [];
  }

(* A reduce_outer schedule initializes each output tile in a loop of its
   own; when a split spatial dim is not physically innermost, that loop's
   constant store strides through the tile.  With every input negative,
   every window's max is negative, so a tile element the init loop
   skipped (still 0, never -inf) shows in the output. *)
let test_pool_tile_init () =
  let task = Measure.make_task ~machine:Machine.intel_cpu pool_op in
  let inputs = negate_inputs task.Measure.feeds in
  List.iter
    (fun (th, tw, tc) ->
      let sched =
        Schedule.default ~rank:4 ~nred:2
        |> Schedule.split ~dim:1 ~inner:th
        |> Schedule.split ~dim:2 ~inner:tw
        |> Schedule.split ~dim:3 ~inner:tc
        |> fun s -> Schedule.reorder_reduce_outer s true
      in
      let prog = Option.get (Measure.program_of task nhwc_choice sched) in
      Alcotest.(check bool)
        (Fmt.str "tiles h%d w%d c%d: exec == interpreter" th tw tc)
        true
        (prog_differential Machine.intel_cpu prog ~inputs))
    [ (2, 1, 8); (1, 2, 8); (2, 2, 8); (4, 4, 8); (2, 1, 1); (1, 4, 2);
      (4, 1, 4); (2, 2, 2) ]

(* Every lowered program initializes what it reduces into, so running its
   kernel twice without [reset_non_inputs] must leave the buffers of one
   interpreter run — for Sum and Max reductions alike, on seeded
   loop-space candidates. *)
let test_rerun_idempotent () =
  let rowmax_op =
    Ops.rowmax ~name:"m" ~inp:"X" ~out:"Y" ~lead:[| 6; 8 |] ~n:12 ()
  in
  let rng = Random.State.make [| 2026 |] in
  List.iter
    (fun (op, (choice : Propagate.choice)) ->
      let task = Measure.make_task ~machine:Machine.intel_cpu op in
      let space = Loopspace.of_layout op choice.Propagate.out_layout in
      for _ = 1 to 8 do
        let sched = Loopspace.decode space (Loopspace.random_point ~rng space) in
        match Measure.program_of task choice sched with
        | None -> ()
        | Some prog ->
            let inputs = task.Measure.feeds in
            let be = Runtime.alloc_bufs prog ~inputs
            and bs = Runtime.alloc_bufs prog ~inputs in
            let k = Kernel.compile prog ~bufs:be in
            k.Kernel.run ();
            k.Kernel.run ();
            let _ = Profiler.run ~fast:false prog ~bufs:bs in
            Alcotest.(check bool)
              (Fmt.str "%s %a: two runs == one interpreter run"
                 op.Opdef.name Schedule.pp sched)
              true
              (Array.for_all2 bufs_equal be bs)
      done)
    [
      (conv_op, Templates.channels_last_choice conv_op);
      (gmm_op, Templates.trivial_choice gmm_op);
      (pool_op, nhwc_choice);
      (rowmax_op, Templates.trivial_choice rowmax_op);
    ]

(* ------------------------------------------------------------------ *)
(* Engine coverage                                                    *)
(* ------------------------------------------------------------------ *)

let test_macro_engagement () =
  (* a tuned matmul must hit the macro path (MAC kernel + tile init),
     not the generic fallback *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let sched = Schedule.vectorize (Schedule.default ~rank:2 ~nred:1) in
  let prog = Option.get (Measure.program_of task choice sched) in
  let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  let k = Kernel.compile prog ~bufs in
  k.Kernel.run ();
  Alcotest.(check bool)
    "macro groups compiled" true
    (k.Kernel.stats.Kernel.macro_groups > 0
    && k.Kernel.stats.Kernel.macro_runs > 0);
  Alcotest.(check int) "no generic fallback" 0
    k.Kernel.stats.Kernel.generic_groups

let test_generic_fallback () =
  (* a layout conversion writes through div/mod of the loop variable —
     non-affine, so the macro planner must decline and the generic path
     must still match the interpreter *)
  let shape = [| 8; 12 |] in
  let src = Layout.split (trivial shape) ~dim:1 ~factors:[ 3; 4 ] in
  let prog = Lower.conversion ~src ~dst:(trivial shape) () in
  let logical = Buffer.random ~seed:7 shape in
  let mk () =
    [| Layout.pack src logical;
       Array.make (Layout.num_physical_elements (trivial shape)) 0.0 |]
  in
  let be = mk () and bs = mk () in
  let k = Kernel.compile prog ~bufs:be in
  k.Kernel.run ();
  Alcotest.(check bool)
    "generic fallback engaged" true
    (k.Kernel.stats.Kernel.generic_groups > 0);
  let _ = Profiler.run ~fast:false prog ~bufs:bs in
  Alcotest.(check bool) "outputs equal" true (Array.for_all2 bufs_equal be bs)

(* ------------------------------------------------------------------ *)
(* Chain runner: perfect loop chains over strength-reduced bases      *)
(* ------------------------------------------------------------------ *)

(* Each nest below puts one of the chain runner's obligations on the
   line (DESIGN.md §12); [parallel] marks its leading loops [Parallel]
   for the (e) variants, which the kernel runs like any other loops. *)

(* (a) A reduce_outer conv with a fused relu: the tile's init, update and
   epilogue loops are siblings over the same inner-band variables, each
   its own leaf group with its own plan. *)
let chain_shared_vars ~parallel =
  let relu =
    Ops.relu ~name:"r" ~inp:"Y" ~out:"Z" ~shape:conv_op.Opdef.out_shape ()
  in
  let task =
    Measure.make_task ~fused:[ relu ] ~machine:Machine.intel_cpu conv_op
  in
  let sched =
    Schedule.default ~rank:4 ~nred:3
    |> Schedule.split ~dim:1 ~inner:2
    |> Schedule.split ~dim:2 ~inner:3
    |> Schedule.split ~dim:3 ~inner:4
    |> fun s ->
    Schedule.parallel (Schedule.reorder_reduce_outer s true) parallel
  in
  let choice = Templates.channels_last_choice conv_op in
  (Option.get (Measure.program_of task choice sched), task.Measure.feeds)

(* (b) A conversion out of a split layout: the outer loop reaches the
   source only through div/mod, so the chain must start below it. *)
let chain_below_divmod ~parallel =
  let shape = [| 8; 6; 4 |] in
  let src = Layout.split (trivial shape) ~dim:0 ~factors:[ 2; 4 ] in
  let prog = Lower.conversion ~src ~dst:(trivial shape) () in
  let prog =
    match prog.Program.body with
    | Program.For (l, b) when parallel > 0 ->
        let l = { l with Program.kind = Program.Parallel } in
        { prog with Program.body = Program.For (l, b) }
    | _ -> prog
  in
  (prog, [ ("convert.src", Buffer.random ~seed:7 shape) ])

(* (c) Zero padding: the select's condition reads the padded dims, which
   are outer chain variables. *)
let chain_select ~parallel =
  let op =
    Ops.pad2d ~name:"p" ~inp:"X" ~out:"Y" ~n:1 ~c:4 ~h:6 ~w:6 ~pad:1 ()
  in
  let task = Measure.make_task ~machine:Machine.intel_cpu op in
  let sched =
    Schedule.parallel
      (Schedule.split (Schedule.default ~rank:4 ~nred:0) ~dim:2 ~inner:4)
      parallel
  in
  ( Option.get (Measure.program_of task (Templates.trivial_choice op) sched),
    task.Measure.feeds )

(* (d) A scale with a fused relu stored through a transposed layout: two
   leaves at the chain's innermost level, the second reading what the
   first just wrote. *)
let chain_multi_leaf ~parallel =
  let shape = [| 4; 6; 8 |] in
  let op = Ops.scale ~name:"s" ~inp:"X" ~out:"Y" ~shape ~factor:(-1.5) () in
  let relu = Ops.relu ~name:"r" ~inp:"Y" ~out:"Z" ~shape () in
  let task = Measure.make_task ~fused:[ relu ] ~machine:Machine.intel_cpu op in
  let choice =
    { (Templates.trivial_choice op) with
      Propagate.out_layout = Layout.reorder (trivial shape) [| 2; 0; 1 |] }
  in
  let sched =
    Schedule.parallel
      (Schedule.split (Schedule.default ~rank:3 ~nred:0) ~dim:1 ~inner:2)
      parallel
  in
  (Option.get (Measure.program_of task choice sched), task.Measure.feeds)

(* Kernel == interpreter bit for bit from NaN-poisoned buffers, with
   every leaf group on the macro path. *)
let check_chain label (prog, inputs) =
  let k, same = poisoned_differential prog ~inputs in
  let st = k.Kernel.stats in
  Alcotest.(check bool) (label ^ ": kernel == interpreter, bitwise") true same;
  Alcotest.(check bool) (label ^ ": macro path engaged") true
    (st.Kernel.macro_groups > 0 && st.Kernel.macro_runs > 0);
  Alcotest.(check int) (label ^ ": no generic group") 0
    st.Kernel.generic_groups

let chain_case ?(parallel = 0) label nest =
  Alcotest.test_case label `Quick (fun () -> check_chain label (nest ~parallel))

let chain_cases =
  [
    chain_case "(a) sibling loops share variables" chain_shared_vars;
    chain_case "(b) chain starts below a div/mod loop" chain_below_divmod;
    chain_case "(c) select reads an outer chain variable" chain_select;
    chain_case "(d) multi-leaf innermost level" chain_multi_leaf;
    chain_case ~parallel:2 "(e) (a) at 4 domains" chain_shared_vars;
    chain_case ~parallel:2 "(e) (b) at 4 domains" chain_below_divmod;
    chain_case ~parallel:2 "(e) (c) at 4 domains" chain_select;
    chain_case ~parallel:2 "(e) (d) at 4 domains" chain_multi_leaf;
  ]

(* ------------------------------------------------------------------ *)
(* Multiply-accumulate alias guard                                    *)
(* ------------------------------------------------------------------ *)

(* A multiply-accumulate whose operand reads its own accumulator: the
   leaf compiler must neither keep the accumulator in a register nor
   hoist the operand.  [~moving:false] is
   [Y[0] = 0.5; for i: Y[0] += Y[0] * W[i]], and [~moving:true] is
   [for j: Y[j] = X[j]; for i: Y[i] += Y[0] * W[i]], whose first
   iteration updates the operand the rest read; [~swap] makes the
   aliased operand the second one. *)
let mac_alias_nest ~moving ~swap =
  let n = 13 in
  let i = Var.fresh "i" and j = Var.fresh "j" in
  (* [slot[k·v]] of a 1-D slot *)
  let at slot k v =
    { Program.slot; idx = [| Ixexpr.mul (Ixexpr.const k) (Ixexpr.var v) |] }
  in
  let loop v body =
    Program.For ({ Program.v; extent = n; kind = Program.Serial }, body)
  in
  let slot sname role = { Program.sname; layout = trivial [| n |]; role } in
  let y0 = Program.Pload (at 0 0 i) and w = Program.Pload (at 1 1 i) in
  let init =
    if moving then loop j (Program.Store (at 0 1 j, Program.Pload (at 2 1 j)))
    else Program.Store (at 0 0 i, Program.Pconst 0.5)
  in
  let mac =
    Program.Reduce
      ( at 0 (if moving then 1 else 0) i,
        Program.Rsum,
        if swap then Program.Pbin (Sexpr.Bmul, w, y0)
        else Program.Pbin (Sexpr.Bmul, y0, w) )
  in
  ( {
      Program.pname = "mac_alias";
      body = Program.Block [ init; loop i mac ];
      slots =
        [| slot "Y" Program.Output; slot "W" Program.Input;
           slot "X" Program.Input |];
      flops = 2 * n;
    },
    [ ("W", Buffer.random ~seed:11 [| n |]);
      ("X", Buffer.random ~seed:12 [| n |]) ] )

let mac_alias_cases =
  List.map
    (fun (label, moving, swap) ->
      Alcotest.test_case label `Quick (fun () ->
          check_chain label (mac_alias_nest ~moving ~swap)))
    [ ("1st operand aliases a scalar accumulator", false, false);
      ("2nd operand aliases a scalar accumulator", false, true);
      ("1st operand aliases a moving accumulator", true, false);
      ("2nd operand aliases a moving accumulator", true, true) ]

(* ------------------------------------------------------------------ *)
(* Relation-derived layouts: random primitive chains (DESIGN.md §16)  *)
(* ------------------------------------------------------------------ *)

(* Scaled-down mirror of test_relation's chain generator.  A conversion
   program from a bijective src chain into an arbitrary dst chain is the
   executable form of the relation's backward map — the pad/unfold
   guards become Pselect zero-fills — so exec == interpreter over random
   chains extends the round-trip laws from pack/unpack to compiled
   kernels. *)

let chain_counts =
  match Sys.getenv_opt "ALT_RELATION_COUNT" with
  | Some s -> ( try max 10 (int_of_string s) with _ -> 500)
  | None -> 500

let gen_chain_perm rank =
  let open QCheck2.Gen in
  let* swaps =
    list_size (int_range 0 4)
      (pair (int_range 0 (rank - 1)) (int_range 0 (rank - 1)))
  in
  let perm = Array.init rank (fun i -> i) in
  List.iter
    (fun (i, j) ->
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t)
    swaps;
  return perm

(* One random primitive applied to [l] (or [l] unchanged when the drawn
   primitive has no legal instantiation); [basic_only] keeps the chain
   bijective, as Lower.conversion requires of its source. *)
let gen_chain_prim ?(basic_only = false) l =
  let open QCheck2.Gen in
  let phys = Layout.physical_shape l in
  let rank = Shape.rank phys in
  if Shape.num_elements phys > 512 then return l
  else
    let* k = if basic_only then int_range 0 2 else int_range 0 4 in
    match k with
    | 0 ->
        let* dim = int_range 0 (rank - 1) in
        let d = phys.(dim) in
        let ds = List.filter (fun f -> f > 1 && f < d) (Shape.divisors d) in
        if ds = [] then return l
        else
          let* f = oneofl ds in
          return (Layout.split l ~dim ~factors:[ d / f; f ])
    | 1 ->
        let* perm = gen_chain_perm rank in
        return (Layout.reorder l perm)
    | 2 ->
        if rank < 2 then return l
        else
          let* dim = int_range 0 (rank - 2) in
          let* count = int_range 2 (min 3 (rank - dim)) in
          return (Layout.fuse l ~dim ~count)
    | 3 ->
        let* dim = int_range 0 (rank - 1) in
        let* lo = int_range 0 2 in
        let* hi = int_range 0 2 in
        if lo = 0 && hi = 0 then return l
        else return (Layout.pad l ~dim ~lo ~hi)
    | _ ->
        let* dim = int_range 0 (rank - 1) in
        let d = phys.(dim) in
        if d < 2 then return l
        else
          let* tile = int_range 2 (min d 4) in
          let* stride = int_range 1 tile in
          return (Layout.unfold l ~dim ~tile ~stride)

let gen_layout_chain ?basic_only shape =
  let open QCheck2.Gen in
  let* depth = int_range 0 4 in
  let rec go l n =
    if n = 0 then return l
    else bind (gen_chain_prim ?basic_only l) (fun l' -> go l' (n - 1))
  in
  go (trivial shape) depth

let gen_conversion_pair =
  let open QCheck2.Gen in
  let* rank = int_range 1 3 in
  let* dims = list_repeat rank (oneofl [ 2; 3; 4; 6 ]) in
  let shape = Array.of_list dims in
  let* src = gen_layout_chain ~basic_only:true shape in
  let* dst = gen_layout_chain shape in
  return (src, dst)

let prop_relation_chains =
  QCheck2.Test.make ~count:chain_counts
    ~name:"random primitive chains: conversion exec == interpreter"
    ~print:(fun (src, dst) ->
      Fmt.str "src=%a dst=%a" Layout.pp src Layout.pp dst)
    gen_conversion_pair
    (fun (src, dst) ->
      let prog = Lower.conversion ~src ~dst () in
      let logical =
        Array.init
          (Shape.num_elements (Layout.logical_shape src))
          (fun i -> float_of_int (i + 1))
      in
      prog_differential Machine.intel_cpu prog
        ~inputs:[ ("convert.src", logical) ])

(* ------------------------------------------------------------------ *)
(* Compiled pack                                                      *)
(* ------------------------------------------------------------------ *)

(* [Runtime.alloc_bufs] packs through [Kernel.pack], so both sides of
   every differential above read inputs the compiled pack wrote; only a
   comparison with the relation walk can see a pack bug.  The source is
   [i + 1], all nonzero, so a live element the kernel leaves unwritten
   reads 0 where the reference holds a value. *)
let pack_source l =
  Array.init
    (Shape.num_elements (Layout.logical_shape l))
    (fun i -> float_of_int (i + 1))

let pack_matches l =
  let src = pack_source l in
  bits_equal (Kernel.pack l src) (Layout.pack l src)

let gen_pack_layout =
  let open QCheck2.Gen in
  let* rank = int_range 1 3 in
  let* dims = list_repeat rank (oneofl [ 2; 3; 4; 6 ]) in
  gen_layout_chain (Array.of_list dims)

let prop_pack_chains =
  QCheck2.Test.make ~count:chain_counts
    ~name:"random primitive chains: Kernel.pack == Layout.pack"
    ~print:(Fmt.to_to_string Layout.pp) gen_pack_layout pack_matches

(* Directed layouts: every advanced-primitive corner, and a fuse after a
   pad, whose conversion indexes the source through div/mod so the
   kernel's generic (non-affine) path writes the buffer. *)
let test_pack_directed () =
  let base = trivial [| 3; 7 |] in
  let cases =
    [
      ("identity", base);
      ("overlapping unfold", Layout.unfold base ~dim:1 ~tile:3 ~stride:2);
      ( "overhanging unfold",
        Layout.unfold (trivial [| 3; 5 |]) ~dim:1 ~tile:3 ~stride:3 );
      ("asymmetric pad", Layout.pad base ~dim:1 ~lo:1 ~hi:2);
      ( "fuse after pad",
        Layout.fuse (Layout.pad base ~dim:1 ~lo:2 ~hi:1) ~dim:0 ~count:2 );
    ]
  in
  List.iter
    (fun (name, l) -> Alcotest.(check bool) name true (pack_matches l))
    cases;
  let fused = List.assoc "fuse after pad" cases in
  let conv =
    Lower.conversion ~src:(trivial (Layout.logical_shape fused)) ~dst:fused ()
  in
  let k =
    Kernel.compile conv
      ~bufs:
        [|
          pack_source fused;
          Array.make (Layout.num_physical_elements fused) 0.0;
        |]
  in
  Alcotest.(check bool) "fuse after pad runs the generic path" true
    (k.Kernel.stats.Kernel.generic_groups > 0);
  let short = Array.make 20 1.0 in
  let raises f =
    match f base short with
    | (_ : float array) -> false
    | exception Layout.Layout_error _ -> true
  in
  Alcotest.(check bool) "wrong-size source: Layout.pack raises" true
    (raises Layout.pack);
  Alcotest.(check bool) "wrong-size source: Kernel.pack raises" true
    (raises Kernel.pack)

(* ------------------------------------------------------------------ *)
(* Measurement discipline                                             *)
(* ------------------------------------------------------------------ *)

let test_measure_repeatable () =
  (* warmup+repeats rerun the kernel; the buffer reset between runs must
     make the final outputs equal to a single interpreter execution *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let sched = Schedule.default ~rank:2 ~nred:1 in
  let prog = Option.get (Measure.program_of task choice sched) in
  let be = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds
  and bs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  let w =
    Exec.measure
      ~cfg:{ Exec.warmup = 2; repeats = 3; clock = Exec.Wall }
      prog ~bufs:be
  in
  Alcotest.(check int) "3 samples" 3 (Array.length w.Exec.samples);
  Alcotest.(check bool) "finite median" true
    (Float.is_finite w.Exec.median_ms && w.Exec.median_ms >= 0.0);
  Alcotest.(check bool) "ordered stats" true
    (w.Exec.min_ms <= w.Exec.median_ms && w.Exec.median_ms <= w.Exec.max_ms);
  let _ = Profiler.run ~fast:false prog ~bufs:bs in
  Alcotest.(check bool)
    "outputs equal after repeated runs" true
    (Array.for_all2 bufs_equal be bs)

let test_virtual_clock () =
  (* Virtual clock: fully deterministic measurement, zero spread, and
     the kernel still produces real outputs *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let sched = Schedule.default ~rank:2 ~nred:1 in
  let prog = Option.get (Measure.program_of task choice sched) in
  let clock = Exec.Virtual (fun p -> float_of_int p.Program.flops *. 1e-6) in
  let measure () =
    let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
    (Exec.measure ~cfg:{ Exec.warmup = 2; repeats = 5; clock } prog ~bufs, bufs)
  in
  let w1, b1 = measure () in
  let w2, b2 = measure () in
  Alcotest.(check (float 0.0)) "deterministic median" w1.Exec.median_ms
    w2.Exec.median_ms;
  Alcotest.(check (float 0.0)) "zero spread" 0.0 (Exec.spread w1);
  Alcotest.(check bool) "samples identical" true
    (w1.Exec.samples = w2.Exec.samples);
  let yi = Program.slot_index prog "Y" in
  Alcotest.(check bool) "outputs produced and equal" true
    (Array.for_all2 bufs_equal b1 b2
    && Array.exists (fun v -> v <> 0.0) b1.(yi))

let test_backend_through_runtime () =
  (* Runtime.run_logical with the exec backend: logical outputs equal
     the sim backend's, latency comes from the wall clock *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let sched = Schedule.default ~rank:2 ~nred:1 in
  let prog = Option.get (Measure.program_of task choice sched) in
  let outs_sim, _ =
    Runtime.run_logical ~machine:Machine.intel_cpu prog
      ~inputs:task.Measure.feeds
  in
  let cfg = { Exec.warmup = 1; repeats = 3; clock = Exec.Wall } in
  let outs_exec, r =
    Runtime.run_logical ~machine:Machine.intel_cpu
      ~backend:(Runtime.Exec cfg) prog ~inputs:task.Measure.feeds
  in
  Alcotest.(check bool) "logical outputs identical" true
    (List.for_all2
       (fun (n1, a) (n2, b) -> n1 = n2 && bufs_equal a b)
       outs_sim outs_exec);
  Alcotest.(check bool) "exec result sane" true
    (Float.is_finite r.Profiler.latency_ms
    && r.Profiler.latency_ms >= 0.0
    && (not r.Profiler.sampled)
    && r.Profiler.flops = float_of_int prog.Program.flops)

(* ------------------------------------------------------------------ *)
(* Directed serial nests                                              *)
(* ------------------------------------------------------------------ *)

(* A bare parallel loop reducing into one scalar: every iteration writes
   offset 0 and, with no init store, it is the canonical
   Reduce-accumulation footgun. *)
let scalar_reduce_prog n =
  let i = Var.fresh "i" in
  {
    Program.pname = "scalar_reduce";
    body =
      Program.For
        ( { Program.v = i; extent = n; kind = Program.Parallel },
          Program.Reduce
            ( { Program.slot = 1; idx = [| Ixexpr.Const 0 |] },
              Program.Rsum,
              Program.Pload { Program.slot = 0; idx = [| Ixexpr.Var i |] } )
        );
    slots =
      [|
        { Program.sname = "X"; layout = trivial [| n |];
          role = Program.Input };
        { Program.sname = "Y"; layout = trivial [| 1 |];
          role = Program.Output };
      |];
    flops = n;
  }

(* An overlapped unfold (stride < tile) makes the window relation
   non-injective, so a nest over tiles that stores back through the
   inverse window map [t*stride + r] writes the overlapped elements more
   than once, with equal values.  The kernel must match the interpreter
   bit for bit from NaN-poisoned buffers, and the stores must rebuild
   the logical tensor. *)
let test_noninjective_window_store () =
  let d = 7 and tile = 3 and stride = 2 in
  let src = Layout.unfold (trivial [| d |]) ~dim:0 ~tile ~stride in
  Alcotest.(check bool)
    "overlapped window relation is non-injective" false
    (Layout_oracle.(Relation.injective (Oracle.relation_of src)));
  let tiles = (Layout.physical_shape src).(0) in
  let t = Var.fresh "t" and r = Var.fresh "r" in
  let prog =
    {
      Program.pname = "overlap_unfold";
      body =
        Program.For
          ( { Program.v = t; extent = tiles; kind = Program.Parallel },
            Program.For
              ( { Program.v = r; extent = tile; kind = Program.Serial },
                Program.Store
                  ( {
                      Program.slot = 1;
                      idx =
                        [|
                          Ixexpr.Add
                            ( Ixexpr.Mul (Ixexpr.Var t, Ixexpr.Const stride),
                              Ixexpr.Var r );
                        |];
                    },
                    Program.Pload
                      {
                        Program.slot = 0;
                        idx = [| Ixexpr.Var t; Ixexpr.Var r |];
                      } ) ) );
      slots =
        [|
          { Program.sname = "X"; layout = src; role = Program.Input };
          { Program.sname = "Y"; layout = trivial [| d |];
            role = Program.Output };
        |];
      flops = 0;
    }
  in
  let logical = Array.init d (fun i -> float_of_int (i + 1)) in
  let k, same = poisoned_differential prog ~inputs:[ ("X", logical) ] in
  Alcotest.(check bool) "kernel == interpreter, bitwise" true same;
  let yi = Program.slot_index prog "Y" in
  Alcotest.(check bool) "inverse window reconstructs the tensor" true
    (bufs_equal k.Kernel.bufs.(yi) logical)

let test_reset_required () =
  (* the Reduce-accumulation footgun (kernel.mli): back-to-back runs
     without reset must produce detectably different outputs, and the
     measurement path's per-repeat reset must hide it.  (Programs the
     tuner lowers re-init their outputs inside the nest; the bare
     reduce program is the one that genuinely accumulates.) *)
  let n = 64 in
  let prog = scalar_reduce_prog n in
  let inputs = [ ("X", Buffer.random ~seed:5 [| n |]) ] in
  let reference = Runtime.alloc_bufs prog ~inputs in
  let kr = Kernel.compile prog ~bufs:reference in
  kr.Kernel.run ();
  let dirty = Runtime.alloc_bufs prog ~inputs in
  let kd = Kernel.compile prog ~bufs:dirty in
  kd.Kernel.run ();
  kd.Kernel.run ();
  let yi = Program.slot_index prog "Y" in
  Alcotest.(check bool)
    "unreset rerun accumulates (footgun detected)" false
    (bufs_equal reference.(yi) dirty.(yi));
  Kernel.reset_non_inputs kd;
  kd.Kernel.run ();
  Alcotest.(check bool)
    "reset_non_inputs restores repeatability" true
    (bufs_equal reference.(yi) dirty.(yi));
  (* Exec.measure resets before every timed repeat, warmup or not:
     warmup = 0 exercises the reset ahead of the very first timed run *)
  let mb = Runtime.alloc_bufs prog ~inputs in
  let _ =
    Exec.measure
      ~cfg:{ Exec.warmup = 0; repeats = 3; clock = Exec.Wall }
      prog ~bufs:mb
  in
  Alcotest.(check bool)
    "measured outputs == single run" true
    (bufs_equal reference.(yi) mb.(yi))

let test_buffer_reuse () =
  (* satellite: the second candidate of a task must be served from the
     buffer cache (shared input packs + recycled scratch), not malloc *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let s1 = Schedule.default ~rank:2 ~nred:1 in
  let s2 = Schedule.split s1 ~dim:0 ~inner:2 in
  ignore (Measure.measure task choice s1);
  let st = Measure.buf_stats task in
  Alcotest.(check bool) "first candidate allocates" true
    (st.Measure.buf_misses > 0);
  let h0 = st.Measure.buf_hits and m0 = st.Measure.buf_misses in
  ignore (Measure.measure task choice s2);
  Alcotest.(check bool) "second candidate reuses buffers" true
    (st.Measure.buf_hits > h0);
  Alcotest.(check int) "no new allocations" m0 st.Measure.buf_misses

(* ------------------------------------------------------------------ *)
(* Rank correlation                                                   *)
(* ------------------------------------------------------------------ *)

let test_rankcorr_units () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let up = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  let down = [| 5.0; 4.0; 3.0; 2.0; 1.0 |] in
  Alcotest.(check (float 1e-9)) "spearman perfect" 1.0 (Rankcorr.spearman a up);
  Alcotest.(check (float 1e-9))
    "spearman reversed" (-1.0) (Rankcorr.spearman a down);
  Alcotest.(check (float 1e-9)) "kendall perfect" 1.0 (Rankcorr.kendall a up);
  Alcotest.(check (float 1e-9))
    "kendall reversed" (-1.0) (Rankcorr.kendall a down);
  (* ties: average ranks *)
  Alcotest.(check bool) "tied ranks averaged" true
    (Rankcorr.ranks [| 2.0; 1.0; 2.0 |] = [| 2.5; 1.0; 2.5 |]);
  Alcotest.(check bool) "constant vector gated" true
    (Float.is_nan (Rankcorr.spearman [| 1.0; 1.0; 1.0 |] a)
    || Array.length a <> 3);
  Alcotest.(check bool) "too short gated" true
    (Float.is_nan (Rankcorr.spearman [| 1.0 |] [| 2.0 |]))

(* Fixed candidate set for the regression: the deterministic layout zoo
   of a large streaming operator, under one fixed serial scalar
   schedule.  The design picks the one axis both devices price the same
   way.  The simulator's latency is (cache misses + static flops) — it
   deliberately omits the per-operation interpreter overhead that
   dominates the exec device's wall clock — so rank agreement can only
   be asserted on candidates that (a) hold the loop structure constant
   (reorder/pad layouts, never split/unfold) and (b) are miss-bound on
   the real machine too.  A 512x512 elementwise sweep is exactly that:
   2 MB per tensor busts every modeled and physical cache level, and a
   transposed input layout turns the unit-stride sweep into a
   4 KB-stride one that both the cache model and the hardware must pay
   for, while the operation count (the exec overhead) stays fixed. *)
let crossval_candidates op =
  let sched =
    Schedule.no_vectorize (Schedule.parallel (Schedule.default ~rank:2 ~nred:0) 0)
  in
  List.map (fun choice -> (choice, sched)) (Templates.layout_zoo op)

let test_rank_correlation () =
  let side = 512 in
  let op = Ops.relu ~name:"r" ~inp:"X" ~out:"Y" ~shape:[| side; side |] () in
  let machine = Machine.intel_cpu in
  let max_points = 8 * side * side in
  let task = Measure.make_task ~max_points ~machine op in
  let progs =
    crossval_candidates op
    |> List.filter_map (fun (c, s) -> Measure.program_of task c s)
    |> List.fold_left
         (fun (seen, acc) p ->
           let key = Measure.program_key p in
           if List.mem key seen then (seen, acc)
           else (key :: seen, p :: acc))
         ([], [])
    |> snd |> List.rev
  in
  Alcotest.(check bool)
    (Fmt.str "enough distinct candidates (%d)" (List.length progs))
    true
    (List.length progs >= 8);
  let cfg = { Exec.warmup = 1; repeats = 5; clock = Exec.Wall } in
  let wall p =
    let bufs = Runtime.alloc_bufs p ~inputs:task.Measure.feeds in
    Exec.measure ~cfg p ~bufs
  in
  let sim p =
    let bufs = Runtime.alloc_bufs p ~inputs:task.Measure.feeds in
    let r = Profiler.run ~machine ~max_points ~fast:true p ~bufs in
    Alcotest.(check bool) "sim not sampled" false r.Profiler.sampled;
    r.Profiler.latency_ms
  in
  let sims = List.map sim progs |> Array.of_list in
  (* the model must actually differentiate the zoo — otherwise the rank
     assertion below would be vacuous *)
  let smin = Array.fold_left Float.min sims.(0) sims in
  let smax = Array.fold_left Float.max sims.(0) sims in
  Alcotest.(check bool) "sim differentiates the layout zoo" true
    (smax > 2.0 *. smin);
  (* One measurement attempt: a noise probe (time the first candidate
     twice) plus the wall vector.  A transient load spike — another
     test suite's build step, a busy host — can flatten the wall signal
     while the probe happens to land in a quiet window, so a failed
     verdict is retried on fresh measurements a couple of times before
     the test judges the ranking itself wrong. *)
  let attempt () =
    let p0 = List.hd progs in
    let a = (wall p0).Exec.median_ms and b = (wall p0).Exec.median_ms in
    let noise = Float.abs (a -. b) /. Float.max 1e-9 (Float.min a b) in
    let walls =
      List.map (fun p -> (wall p).Exec.median_ms) progs |> Array.of_list
    in
    let rho = Rankcorr.spearman sims walls in
    let tau = Rankcorr.kendall sims walls in
    let wmin = Array.fold_left Float.min walls.(0) walls in
    let wmax = Array.fold_left Float.max walls.(0) walls in
    let wspread = wmax /. Float.max 1e-9 wmin in
    Fmt.epr "crossval: n=%d rho=%.3f tau=%.3f noise=%.3f wspread=%.2fx@."
      (Array.length sims) rho tau noise wspread;
    (noise, rho, tau, wspread)
  in
  let rec judge tries =
    let noise, rho, tau, wspread = attempt () in
    if noise > 0.3 then
      Fmt.epr "crossval: wall clock unreliable (noise %.2f) — floor skipped@."
        noise
    else if rho > 0.5 && tau > 0.0 then ()
    else if tries > 1 then begin
      Fmt.epr "crossval: rho %.3f below floor — remeasuring (%d left)@." rho
        (tries - 1);
      judge (tries - 1)
    end
    else if wspread < 1.5 then
      (* the wall-side twin of the sim non-vacuity guard above: on a
         healthy box the zoo spans >= 2x on the wall clock; a
         cache-thrashing neighbor (shared host) makes every layout
         equally miss-bound, and rank agreement over a flat vector is
         noise by construction — skip, loudly, rather than judge *)
      Fmt.epr
        "crossval: wall spread %.2fx cannot separate the zoo (contended \
         box) — floor skipped@."
        wspread
    else begin
      (* pinned floor: conservative against the 0.8-0.95 observed, because
         exec wall and the cache model measure different
         micro-architectures and the box may be loaded *)
      Alcotest.(check bool)
        (Fmt.str "spearman %.3f above floor 0.5" rho)
        true (rho > 0.5);
      Alcotest.(check bool) (Fmt.str "kendall %.3f positive" tau) true
        (tau > 0.0)
    end
  in
  judge 3

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "alt_exec"
    [
      ( "differential",
        qsuite
          ([
            prop_differential conv_op 6 "conv2d: exec == interpreter (3 machines)";
            prop_differential gmm_op 3 "matmul: exec == interpreter (3 machines)";
            prop_relation_chains;
          ]
          @ List.map prop_poisoned shape_ops)
        @ [
            Alcotest.test_case "ALT template (split/reorder/unfold)" `Quick
              test_unfolded_template;
            Alcotest.test_case "padded input + fused relu" `Quick
              test_padded_fused;
            Alcotest.test_case "fused output layout" `Quick
              test_fused_output_layout;
            Alcotest.test_case "strided tile init (maxpool, negative)" `Quick
              test_pool_tile_init;
            Alcotest.test_case "two runs == one interpreter run" `Quick
              test_rerun_idempotent;
            Alcotest.test_case "non-injective window store" `Quick
              test_noninjective_window_store;
          ] );
      ( "engine",
        [
          Alcotest.test_case "macro kernels engage" `Quick
            test_macro_engagement;
          Alcotest.test_case "generic fallback matches" `Quick
            test_generic_fallback;
        ] );
      ("chains", chain_cases);
      ( "pack",
        qsuite [ prop_pack_chains ]
        @ [
            Alcotest.test_case "directed: unfold/pad/fuse corners" `Quick
              test_pack_directed;
          ] );
      ("mac-alias", mac_alias_cases);
      ( "measurement",
        [
          Alcotest.test_case "warmup/repeat/median discipline" `Quick
            test_measure_repeatable;
          Alcotest.test_case "reset-before-repeat regression" `Quick
            test_reset_required;
          Alcotest.test_case "buffer-cache reuse" `Quick test_buffer_reuse;
          Alcotest.test_case "virtual clock deterministic" `Quick
            test_virtual_clock;
          Alcotest.test_case "runtime backend threading" `Quick
            test_backend_through_runtime;
        ] );
      ( "crossval",
        [
          Alcotest.test_case "rank correlation units" `Quick
            test_rankcorr_units;
          Alcotest.test_case "sim ranks like exec (seeded set)" `Quick
            test_rank_correlation;
        ] );
    ]
