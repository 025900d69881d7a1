(* End-to-end compilation of a light-weight vision network.

   Run with:  dune exec examples/end_to_end.exe

   Compiles the scaled MobileNet-V2 with three systems — the vendor-library
   stand-in, a loop-only Ansor-like tuner, and ALT's joint tuner — and
   reports the simulated end-to-end latency, the layout propagation plan
   (fused operators, conversion operators) and a per-stage breakdown of the
   ALT execution.  The workload is the kind of lightweight, memory-bound
   network where the paper reports ALT's largest end-to-end wins. *)

open Alt

let () =
  let m = Zoo.mobilenet_v2 ~size:32 () in
  let g = m.Zoo.graph in
  let machine = Machine.arm_cpu in
  let budget = 240 in
  Fmt.pr "=== end-to-end: %s on %a ===@." m.Zoo.name Machine.pp machine;
  Fmt.pr "%a@." Graph.pp g;

  let systems =
    [ Graph_tuner.Gvendor; Graph_tuner.Gansor; Graph_tuner.Galt ]
  in
  let results =
    List.map
      (fun sys ->
        let tg = compile_model ~system:sys ~machine ~budget g in
        let r = Graph_tuner.run tg ~machine in
        Fmt.pr "%-8s latency=%8.3f ms  (tasks=%d, measurements=%d, \
                conversions=%d, fused=%d)@."
          (Graph_tuner.gsystem_name sys)
          r.Compile.latency_ms tg.Graph_tuner.tasks_tuned
          tg.Graph_tuner.measurements
          tg.Graph_tuner.compiled.Compile.plan.Propagate.conversions
          tg.Graph_tuner.compiled.Compile.plan.Propagate.fused_ops;
        (sys, tg, r))
      systems
  in
  (match (List.nth results 1, List.nth results 2) with
  | (_, _, ansor), (_, _, alt) ->
      Fmt.pr "@.ALT speedup over Ansor-like: %.2fx@."
        (ansor.Compile.latency_ms /. alt.Compile.latency_ms));

  (* per-stage breakdown of the ALT execution *)
  (match List.nth results 2 with
  | _, _, r ->
      Fmt.pr "@.--- ALT per-stage breakdown (top 10 by latency) ---@.";
      let sorted =
        List.sort
          (fun (_, (a : Profiler.result)) (_, b) ->
            Float.compare b.Profiler.latency_ms a.Profiler.latency_ms)
          r.Compile.per_stage
      in
      List.iteri
        (fun i (label, (pr : Profiler.result)) ->
          if i < 10 then
            Fmt.pr "  %-24s %8.4f ms  l1-mis=%8.0f@." label
              pr.Profiler.latency_ms pr.Profiler.l1_misses)
        sorted)
