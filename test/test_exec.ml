(* Exec backend differential suite (DESIGN.md §12).

   The exec backend's contract is *element-wise identical outputs* to
   the scalar interpreter: the compiled macro-kernels mirror the
   interpreter's combine functions and accumulation chains exactly, so
   every buffer is compared with [=] — no epsilon.  The suite drives
   random (layout, schedule) candidates from the tuning templates
   through both devices on all three machine profiles, plus directed
   candidates covering every layout primitive (split / reorder / fuse /
   unfold / pad), fused conv+relu chains, and the generic fallback for
   non-affine bodies.  The rank-correlation regression at the end is the
   paper's cross-validation claim in miniature: simulator latency must
   rank a seeded candidate set like real execution does (tolerance-
   gated: wall clocks on loaded CI boxes can be arbitrarily noisy, so
   the assertion is skipped when timing is demonstrably unreliable). *)

open Alt_tensor
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Lower = Alt_ir.Lower
module Program = Alt_ir.Program
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
  let inputs =
    List.map
      (fun (name, a) -> (name, Array.map (fun v -> -.Float.abs v -. 0.5) a))
      task.Measure.feeds
  in
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
      ~cfg:{ Exec.warmup = 2; repeats = 3; clock = Exec.Wall; domains = 1 }
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
    (Exec.measure ~cfg:{ Exec.warmup = 2; repeats = 5; clock; domains = 1 } prog ~bufs, bufs)
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
  let cfg = { Exec.warmup = 1; repeats = 3; clock = Exec.Wall; domains = 1 } in
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
(* Parallel driver (DESIGN.md §15)                                    *)
(* ------------------------------------------------------------------ *)

(* One full kernel execution at a given domain count. *)
let run_with_domains ~domains prog ~inputs =
  let bufs = Runtime.alloc_bufs prog ~inputs in
  let k = Kernel.compile ~domains prog ~bufs in
  k.Kernel.run ();
  (k, bufs)

(* The §15 contract: exec_domains = 1 and exec_domains = 4 produce
   bit-identical buffers, engaged or fallen back. *)
let parallel_differential ?(fused = []) op (choice : Propagate.choice) sched =
  let task = Measure.make_task ~fused ~machine:Machine.intel_cpu op in
  match Measure.program_of task choice sched with
  | None -> true
  | Some prog ->
      let _, b1 =
        run_with_domains ~domains:1 prog ~inputs:task.Measure.feeds
      in
      let _, b4 =
        run_with_domains ~domains:4 prog ~inputs:task.Measure.feeds
      in
      Array.for_all2 bufs_equal b1 b4

let prop_parallel op nactions name =
  QCheck2.Test.make ~count:15 ~name
    QCheck2.Gen.(
      triple
        (array_size (return nactions) (float_bound_exclusive 1.0))
        (array_size (return 32) (float_bound_exclusive 1.0))
        (int_range 0 2))
    (fun (actions, point, par) ->
      let tpl = Option.get (Templates.for_op op) in
      let choice = tpl.Templates.decode actions in
      let space = Loopspace.of_layout op choice.Propagate.out_layout in
      let sched =
        Loopspace.decode space (Array.sub point 0 (Loopspace.dim space))
      in
      parallel_differential op choice (Schedule.parallel sched par))

let test_parallel_directed () =
  (* the layout-primitive-heavy candidates from the directed suite, with
     their leading loops marked parallel *)
  let op, choice, sched = alt_template_candidate () in
  Alcotest.(check bool)
    "ALT template (unfold): domains 1 == 4" true
    (parallel_differential op choice (Schedule.parallel sched 2));
  let relu =
    Ops.relu ~name:"r" ~inp:"Y" ~out:"Z" ~shape:conv_op.Opdef.out_shape ()
  in
  let inp = Layout.pad (trivial [| 1; 4; 8; 8 |]) ~dim:2 ~lo:1 ~hi:1 in
  let pchoice =
    {
      Propagate.out_layout = trivial conv_op.Opdef.out_shape;
      in_layouts = [ ("X", inp) ];
    }
  in
  let psched = Schedule.parallel (Schedule.default ~rank:4 ~nred:3) 2 in
  Alcotest.(check bool)
    "padded + fused relu: domains 1 == 4" true
    (parallel_differential ~fused:[ relu ] conv_op pchoice psched)

let test_parallel_engages () =
  (* a tuned parallel matmul must actually chunk — and still match the
     scalar interpreter bit for bit *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let sched = Schedule.parallel (Schedule.default ~rank:2 ~nred:1) 1 in
  let prog = Option.get (Measure.program_of task choice sched) in
  let k4, b4 = run_with_domains ~domains:4 prog ~inputs:task.Measure.feeds in
  Alcotest.(check bool)
    "chunks dispatched" true
    (k4.Kernel.stats.Kernel.par_chunks > 0);
  Alcotest.(check int) "no fallback" 0 k4.Kernel.stats.Kernel.par_fallbacks;
  Alcotest.(check bool)
    "per-chunk timings recorded" true
    (Array.length k4.Kernel.par_ms = k4.Kernel.stats.Kernel.par_chunks
    && Array.for_all (fun ms -> Float.is_finite ms && ms >= 0.0)
         k4.Kernel.par_ms);
  let bs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
  let _ = Profiler.run ~machine:Machine.intel_cpu ~fast:false prog ~bufs:bs in
  Alcotest.(check bool)
    "parallel outputs == interpreter" true
    (Array.for_all2 bufs_equal b4 bs)

(* A bare parallel loop reducing into one scalar: every iteration writes
   offset 0.  Non-disjoint (the forced-fallback case) and, having no
   init store, the canonical Reduce-accumulation footgun. *)
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

let test_forced_fallback () =
  (* the disjointness check must refuse the scalar reduction and the
     driver must fall back — loudly — while outputs stay identical *)
  let n = 64 in
  let prog = scalar_reduce_prog n in
  let inputs = [ ("X", Buffer.random ~seed:3 [| n |]) ] in
  let k1, b1 = run_with_domains ~domains:1 prog ~inputs in
  let k4, b4 = run_with_domains ~domains:4 prog ~inputs in
  Alcotest.(check int) "serial path has no fallback tick" 0
    k1.Kernel.stats.Kernel.par_fallbacks;
  Alcotest.(check int) "fallback counted" 1
    k4.Kernel.stats.Kernel.par_fallbacks;
  Alcotest.(check int) "no chunks dispatched" 0
    k4.Kernel.stats.Kernel.par_chunks;
  Alcotest.(check bool) "outputs identical" true
    (Array.for_all2 bufs_equal b1 b4)

(* The disjointness check driven by the relation algebra: an overlapped
   unfold (stride < tile) makes the window relation non-injective, so a
   nest whose parallel loop runs over tiles while storing back through
   the inverse window map [t*stride + r] has chunks with overlapping
   write footprints.  The driver must refuse to chunk and fall back,
   with bit-identical outputs (the overlapped writes carry equal values,
   but the checker cannot know that). *)
let test_relation_noninjective_fallback () =
  let d = 7 and tile = 3 and stride = 2 in
  let src = Layout.unfold (trivial [| d |]) ~dim:0 ~tile ~stride in
  Alcotest.(check bool)
    "overlapped window relation is non-injective" false
    (Relation.injective (Layout.relation src));
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
  let inputs = [ ("X", logical) ] in
  let k1, b1 = run_with_domains ~domains:1 prog ~inputs in
  let k4, b4 = run_with_domains ~domains:4 prog ~inputs in
  Alcotest.(check int) "serial path has no fallback tick" 0
    k1.Kernel.stats.Kernel.par_fallbacks;
  Alcotest.(check int) "fallback counted" 1
    k4.Kernel.stats.Kernel.par_fallbacks;
  Alcotest.(check int) "no chunks dispatched" 0
    k4.Kernel.stats.Kernel.par_chunks;
  Alcotest.(check bool) "outputs identical" true
    (Array.for_all2 bufs_equal b1 b4);
  (* folding the unfolded view back through the inverse window map must
     reproduce the logical tensor exactly *)
  let yi = Program.slot_index prog "Y" in
  Alcotest.(check bool) "inverse window reconstructs the tensor" true
    (bufs_equal b1.(yi) logical)

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
      ~cfg:{ Exec.warmup = 0; repeats = 3; clock = Exec.Wall; domains = 1 }
      prog ~bufs:mb
  in
  Alcotest.(check bool)
    "measured outputs == single run" true
    (bufs_equal reference.(yi) mb.(yi))

let test_measure_parallel_fields () =
  (* Exec.measure at domains = 4: wall carries the parallel counters and
     the buffers equal the serial measurement's *)
  let task = Measure.make_task ~machine:Machine.intel_cpu gmm_op in
  let choice = Templates.trivial_choice gmm_op in
  let sched = Schedule.parallel (Schedule.default ~rank:2 ~nred:1) 1 in
  let prog = Option.get (Measure.program_of task choice sched) in
  let measure domains =
    let bufs = Runtime.alloc_bufs prog ~inputs:task.Measure.feeds in
    let w =
      Exec.measure
        ~cfg:{ Exec.warmup = 1; repeats = 2; clock = Exec.Wall; domains }
        prog ~bufs
    in
    (w, bufs)
  in
  let w1, b1 = measure 1 in
  let w4, b4 = measure 4 in
  Alcotest.(check int) "serial: no chunks" 0 w1.Exec.par_chunks;
  Alcotest.(check (float 0.0)) "serial: no imbalance" 0.0 w1.Exec.imbalance_pct;
  Alcotest.(check bool) "parallel: chunks counted" true
    (w4.Exec.par_chunks > 0);
  Alcotest.(check int) "parallel: no fallback" 0 w4.Exec.par_fallbacks;
  Alcotest.(check bool) "imbalance finite" true
    (Float.is_finite w4.Exec.imbalance_pct && w4.Exec.imbalance_pct >= 0.0);
  Alcotest.(check bool) "outputs equal across domain counts" true
    (Array.for_all2 bufs_equal b1 b4)

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
  let cfg = { Exec.warmup = 1; repeats = 5; clock = Exec.Wall; domains = 1 } in
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
          [
            prop_differential conv_op 6 "conv2d: exec == interpreter (3 machines)";
            prop_differential gmm_op 3 "matmul: exec == interpreter (3 machines)";
            prop_relation_chains;
          ]
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
          ] );
      ( "engine",
        [
          Alcotest.test_case "macro kernels engage" `Quick
            test_macro_engagement;
          Alcotest.test_case "generic fallback matches" `Quick
            test_generic_fallback;
        ] );
      ( "parallel",
        qsuite
          [
            prop_parallel conv_op 6 "conv2d: domains 1 == 4 (random par)";
            prop_parallel gmm_op 3 "matmul: domains 1 == 4 (random par)";
          ]
        @ [
            Alcotest.test_case "directed: unfold/pad/fused-relu" `Quick
              test_parallel_directed;
            Alcotest.test_case "parallel chunks engage" `Quick
              test_parallel_engages;
            Alcotest.test_case "non-disjoint nest falls back" `Quick
              test_forced_fallback;
            Alcotest.test_case "non-injective window relation falls back"
              `Quick test_relation_noninjective_fallback;
          ] );
      ( "measurement",
        [
          Alcotest.test_case "warmup/repeat/median discipline" `Quick
            test_measure_repeatable;
          Alcotest.test_case "reset-before-repeat regression" `Quick
            test_reset_required;
          Alcotest.test_case "parallel measurement fields" `Quick
            test_measure_parallel_fields;
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
