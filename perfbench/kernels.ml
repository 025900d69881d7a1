(* A tuned graph run for real: every stage of [Compile.compiled] is
   compiled to a macro-kernel with [Kernel.compile], bound to buffers
   chained producer to consumer, and a pass runs the stages in plan
   order on the wall clock.  This is [Compile.execute]'s dataflow with
   the exec backend in place of the simulator. *)

open Alt

type stage = {
  label : string;
  convert : bool;  (** a [Propagate.Convert] stage *)
  kernel : Kernel.t;
}

type model = {
  stages : stage array;
  outputs : (string * Layout.t * float array) list;
      (** graph outputs: physical layout and the buffer a pass fills *)
}

(* Bind every stage to buffers and compile it.  Returns the model and
   the summed wall time of the [Kernel.compile] calls alone. *)
let build ~name (c : Compile.compiled) ~(feeds : (string * float array) list)
    : model * float =
  let g = c.Compile.graph in
  let env : (string, (Layout.t * float array) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add tensor layout data =
    let prev = Option.value ~default:[] (Hashtbl.find_opt env tensor) in
    Hashtbl.replace env tensor ((layout, data) :: prev)
  in
  let find tensor layout =
    match Hashtbl.find_opt env tensor with
    | None -> invalid_arg (Fmt.str "%s: tensor %s not materialized" name tensor)
    | Some ms -> (
        match List.find_opt (fun (l, _) -> Layout.equal l layout) ms with
        | Some (_, d) -> d
        | None ->
            invalid_arg
              (Fmt.str "%s: %s missing in the planned layout" name tensor))
  in
  let storage tensor =
    match List.assoc_opt tensor c.Compile.plan.Propagate.storage with
    | Some l -> l
    | None -> Layout.create (Graph.tensor_shape g tensor)
  in
  List.iter
    (fun (tensor, _) ->
      add tensor (storage tensor)
        (Layout.pack (storage tensor) (List.assoc tensor feeds)))
    (g.Graph.inputs @ g.Graph.params);
  let compile_s = ref 0.0 in
  let stages =
    List.map
      (fun (cs : Compile.compiled_stage) ->
        let prog = cs.Compile.prog in
        let bufs =
          Array.map
            (fun (s : Program.slot) ->
              match (cs.Compile.stage, s.Program.role) with
              | Propagate.Convert { tensor; src; _ }, Program.Input ->
                  find tensor src
              | _, Program.Input -> find s.Program.sname s.Program.layout
              | _, (Program.Output | Program.Temp) ->
                  let n = Layout.num_physical_elements s.Program.layout in
                  Array.make n 0.0)
            prog.Program.slots
        in
        let kernel, dt = Proc.time (fun () -> Kernel.compile prog ~bufs) in
        compile_s := !compile_s +. dt;
        Array.iteri
          (fun i (s : Program.slot) ->
            match (cs.Compile.stage, s.Program.role) with
            | Propagate.Convert { tensor; dst; _ }, Program.Output ->
                add tensor dst bufs.(i)
            | _, (Program.Output | Program.Temp) ->
                add s.Program.sname s.Program.layout bufs.(i)
            | _, Program.Input -> ())
          prog.Program.slots;
        let convert =
          match cs.Compile.stage with Propagate.Convert _ -> true | _ -> false
        in
        { label = cs.Compile.label; convert; kernel })
      c.Compile.stages
  in
  let outputs =
    List.map
      (fun tensor ->
        match Hashtbl.find_opt env tensor with
        | Some ((l, d) :: _) -> (tensor, l, d)
        | _ -> invalid_arg (Fmt.str "%s: no output %s" name tensor))
      g.Graph.outputs
  in
  ({ stages = Array.of_list stages; outputs }, !compile_s)

(* One pass: run every stage once; per-stage CPU times in ms.  As in
   [Exec.measure], each stage's non-input buffers are zeroed, untimed,
   before it runs: some tuned schedules (split gmm reductions) lower
   without an init store and accumulate into what the buffer holds. *)
let run (m : model) : float array =
  Array.map
    (fun st ->
      Kernel.reset_non_inputs st.kernel;
      let t0 = Proc.cpu () in
      st.kernel.Kernel.run ();
      (Proc.cpu () -. t0) *. 1e3)
    m.stages

(* Largest deviation of the pass's outputs from the reference, relative
   to the reference's largest magnitude.  [Buffer.allclose] is absolute,
   which cannot judge outputs that reach 1e15; a relative measure can. *)
let rel_error (m : model) ~(reference : (string * float array) list) : float =
  List.fold_left
    (fun worst (tensor, layout, data) ->
      let got = Layout.unpack layout data in
      let want = List.assoc tensor reference in
      if Array.length got <> Array.length want then Float.infinity
      else begin
        let scale =
          Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 want
        in
        let diff = ref 0.0 in
        Array.iteri
          (fun i w ->
            let d = Float.abs (got.(i) -. w) in
            (* a NaN compares false everywhere: count it as a mismatch *)
            if Float.is_nan d then diff := Float.infinity
            else if d > !diff then diff := d)
          want;
        Float.max worst (!diff /. Float.max scale Float.min_float)
      end)
    0.0 m.outputs

let stats (m : model) : int * int =
  Array.fold_left
    (fun (mac, gen) st ->
      let s = st.kernel.Kernel.stats in
      (mac + s.Kernel.macro_groups, gen + s.Kernel.generic_groups))
    (0, 0) m.stages
