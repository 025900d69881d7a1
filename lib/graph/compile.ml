(* End-to-end graph compilation and execution.

   Turns a propagation [plan] plus per-operator loop schedules into a list
   of lowered programs (one per stage), then executes them in order against
   a tensor environment, accumulating simulated latency.  A tensor may be
   materialized in several layouts at once (its storage layout plus
   conversion results); stages select the materialization whose layout
   matches what they were planned to read. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Buffer = Alt_tensor.Buffer
module Opdef = Alt_ir.Opdef
module Schedule = Alt_ir.Schedule
module Lower = Alt_ir.Lower
module Program = Alt_ir.Program
module Machine = Alt_machine.Machine
module Profiler = Alt_machine.Profiler

type compiled_stage = {
  stage : Propagate.stage;
  prog : Program.t;
  label : string;
}

type compiled = {
  graph : Graph.t;
  plan : Propagate.plan;
  stages : compiled_stage list;
}

(* Default schedule for simple stages: parallel outer loop + vectorized
   innermost — what any baseline compiler does for elementwise code. *)
let simple_schedule ~rank ~nred =
  let s = Schedule.default ~rank ~nred in
  let s = Schedule.vectorize s in
  Schedule.parallel s 1

let compile ?(schedules : (string * Schedule.t) list = []) (g : Graph.t)
    (plan : Propagate.plan) : compiled =
  let storage name =
    match List.assoc_opt name plan.Propagate.storage with
    | Some l -> l
    | None -> Layout.create (Graph.tensor_shape g name)
  in
  let stages =
    List.map
      (fun (stage : Propagate.stage) ->
        match stage with
        | Propagate.Convert { tensor; src; dst } ->
            {
              stage;
              prog = Lower.conversion ~name:("convert." ^ tensor) ~src ~dst ();
              label = "convert." ^ tensor;
            }
        | Propagate.Complex_stage { node; out_layout; in_layouts; fused } ->
            let op = node.Graph.op in
            let layouts name =
              match List.assoc_opt name in_layouts with
              | Some l -> l
              | None -> storage name
            in
            let schedule =
              match List.assoc_opt op.Opdef.name schedules with
              | Some s -> s
              | None ->
                  simple_schedule
                    ~rank:(Shape.rank (Layout.physical_shape out_layout))
                    ~nred:(List.length op.Opdef.reduce)
            in
            let fused =
              List.map
                (fun (c : Graph.node) ->
                  {
                    Lower.fop = c.Graph.op;
                    fout_layout = storage c.Graph.op.Opdef.out_name;
                  })
                fused
            in
            {
              stage;
              prog = Lower.lower ~op ~layouts ~out_layout ~fused ~schedule ();
              label = op.Opdef.name;
            }
        | Propagate.Simple_stage { node; out_layout } ->
            let op = node.Graph.op in
            let layouts name = storage name in
            let prog =
              if op.Opdef.combiner = Opdef.Assign then
                Lower.lower_assign_to ~op ~layouts ~out_layout
              else
                Lower.lower ~op ~layouts ~out_layout
                  ~schedule:
                    (simple_schedule
                       ~rank:(Shape.rank (Layout.physical_shape out_layout))
                       ~nred:(List.length op.Opdef.reduce))
                  ()
            in
            { stage; prog; label = op.Opdef.name })
      plan.Propagate.stages
  in
  { graph = g; plan; stages }

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

type exec_result = {
  latency_ms : float;
  per_stage : (string * Profiler.result) list;
  outputs : (string * float array) list; (* logical; valid when unsampled *)
  sampled : bool;
}

let execute ?(machine = Machine.intel_cpu) ?max_points (c : compiled)
    ~(feeds : (string * float array) list) : exec_result =
  let g = c.graph in
  (* env: tensor name -> materializations *)
  let env : (string, (Layout.t * float array) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add name layout data =
    let prev = try Hashtbl.find env name with Not_found -> [] in
    Hashtbl.replace env name ((layout, data) :: prev)
  in
  let find name layout =
    match Hashtbl.find_opt env name with
    | None -> invalid_arg (Fmt.str "Compile.execute: tensor %s not materialized" name)
    | Some ms -> (
        match List.find_opt (fun (l, _) -> Layout.equal l layout) ms with
        | Some (_, d) -> d
        | None ->
            invalid_arg
              (Fmt.str "Compile.execute: %s not available in layout %a" name
                 Layout.pp layout))
  in
  (* Pack graph inputs and parameters in their storage layouts (inputs at
     graph entry; parameters offline — both free, see DESIGN.md). *)
  let storage name =
    match List.assoc_opt name c.plan.Propagate.storage with
    | Some l -> l
    | None -> Layout.create (Graph.tensor_shape g name)
  in
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name feeds with
      | Some logical ->
          add name (storage name) (Alt_exec.Kernel.pack (storage name) logical)
      | None -> invalid_arg (Fmt.str "Compile.execute: missing feed %s" name))
    (g.Graph.inputs @ g.Graph.params);
  let per_stage = ref [] in
  let total = ref 0.0 in
  let any_sampled = ref false in
  List.iter
    (fun cs ->
      let prog = cs.prog in
      let bufs =
        Array.map
          (fun (s : Program.slot) ->
            match (cs.stage, s.Program.role) with
            | Propagate.Convert { tensor; src; _ }, Program.Input ->
                find tensor src
            | _, Program.Input -> find s.Program.sname s.Program.layout
            | _, (Program.Output | Program.Temp) ->
                Array.make (Layout.num_physical_elements s.Program.layout) 0.0)
          prog.Program.slots
      in
      let r = Profiler.run ~machine ?max_points prog ~bufs in
      if r.Profiler.sampled then any_sampled := true;
      total := !total +. r.Profiler.latency_ms;
      per_stage := (cs.label, r) :: !per_stage;
      Array.iteri
        (fun i (s : Program.slot) ->
          match (cs.stage, s.Program.role) with
          | Propagate.Convert { tensor; dst; _ }, Program.Output ->
              add tensor dst bufs.(i)
          | _, (Program.Output | Program.Temp) ->
              add s.Program.sname s.Program.layout bufs.(i)
          | _, Program.Input -> ())
        prog.Program.slots)
    c.stages;
  let outputs =
    List.map
      (fun name ->
        match Hashtbl.find_opt env name with
        | Some ((l, d) :: _) -> (name, Layout.unpack l d)
        | _ -> invalid_arg (Fmt.str "Compile.execute: no output %s" name))
      g.Graph.outputs
  in
  {
    latency_ms = !total;
    per_stage = List.rev !per_stage;
    outputs;
    sampled = !any_sampled;
  }

(* Convenience: plan with trivial choices for each complex op (used by
   loop-only baselines that keep default layouts). *)
let trivial_choices ?(out_perm : int array option) (g : Graph.t) :
    (string * Propagate.choice) list =
  List.map
    (fun (n : Graph.node) ->
      let op = n.Graph.op in
      let out_shape = op.Opdef.out_shape in
      let out_layout =
        match out_perm with
        | Some p when Array.length p = Shape.rank out_shape ->
            Layout.reorder (Layout.create out_shape) p
        | _ -> Layout.create out_shape
      in
      ( op.Opdef.name,
        {
          Propagate.out_layout;
          in_layouts =
            List.map (fun (t, s) -> (t, Layout.create s)) op.Opdef.inputs;
        } ))
    (Graph.complex_nodes g)
