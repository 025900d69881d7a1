(* Convenience runtime: allocate physical buffers for a program from
   logical inputs, execute it under the profiler, and unpack results.

   This is the path tests and examples use to check that transformed
   programs compute exactly what the naive operator definition computes. *)

module Shape = Alt_tensor.Shape
module Layout = Alt_tensor.Layout
module Buffer = Alt_tensor.Buffer
module Program = Alt_ir.Program

(* Physical buffers for every slot: inputs packed from logical data,
   non-inputs zero-initialized. *)
let alloc_bufs (p : Program.t) ~(inputs : (string * float array) list) :
    float array array =
  Array.map
    (fun (s : Program.slot) ->
      match s.Program.role with
      | Program.Input -> (
          match List.assoc_opt s.Program.sname inputs with
          | Some logical -> Alt_exec.Kernel.pack s.Program.layout logical
          | None ->
              invalid_arg
                (Fmt.str "Runtime.alloc_bufs: missing input %s" s.Program.sname))
      | Program.Output | Program.Temp ->
          Array.make (Layout.num_physical_elements s.Program.layout) 0.0)
    p.Program.slots

let output_logical (p : Program.t) (bufs : float array array) name :
    float array =
  let i = Program.slot_index p name in
  Layout.unpack p.Program.slots.(i).Program.layout bufs.(i)

(* ------------------------------------------------------------------ *)
(* Measurement backends (DESIGN.md §12)                               *)
(* ------------------------------------------------------------------ *)

type backend = Sim | Exec of Alt_exec.Exec.cfg

let backend_tag = function
  | Sim -> "sim"
  | Exec cfg ->
      Fmt.str "exec:w%d:r%d:%s" cfg.Alt_exec.Exec.warmup
        cfg.Alt_exec.Exec.repeats
        (match cfg.Alt_exec.Exec.clock with
        | Alt_exec.Exec.Wall -> "wall"
        | Alt_exec.Exec.Virtual _ -> "virtual")

(* Present an exec measurement in the profiler's result type, so every
   consumer of measurements (tuners, caches, checkpoints, CLI printers)
   works unchanged.  The exec device has no counter model: instruction
   and cache fields are zero, [flops] is the program's static count, and
   [cycles] is derived from the wall clock at the machine's frequency.
   The exec device always executes the full program ([sampled=false]),
   and serially: [parallel_extent] is reported for symmetry only, and
   no model speedup is applied to the wall clock. *)
let result_of_wall ~(machine : Machine.t) (p : Program.t)
    (w : Alt_exec.Exec.wall) : Profiler.result =
  {
    Profiler.machine;
    insts = 0.0;
    loads = 0.0;
    stores = 0.0;
    flops = float_of_int p.Program.flops;
    l1_accesses = 0.0;
    l1_misses = 0.0;
    l2_misses = 0.0;
    parallel_extent = Profiler.parallel_extent p;
    cycles = w.Alt_exec.Exec.median_ms *. machine.Machine.freq_ghz *. 1e6;
    latency_ms = w.Alt_exec.Exec.median_ms;
    sampled = false;
    scale = 1.0;
  }

(* The one dispatch on the measuring device: every measurement, the
   tuner's and the convenience runtime's, goes through here. *)
let measure ~(machine : Machine.t) ?max_points (backend : backend)
    (p : Program.t) ~(bufs : float array array) : Profiler.result =
  match backend with
  | Sim -> Profiler.run ~machine ?max_points p ~bufs
  | Exec cfg -> result_of_wall ~machine p (Alt_exec.Exec.measure ~cfg p ~bufs)

(* Run a program end to end on logical inputs; returns the logical contents
   of every non-input slot plus the profiler result. *)
let run_logical ?(machine = Machine.intel_cpu) ?max_points ?(backend = Sim)
    (p : Program.t) ~(inputs : (string * float array) list) :
    (string * float array) list * Profiler.result =
  let bufs = alloc_bufs p ~inputs in
  let r = measure ~machine ?max_points backend p ~bufs in
  let outs =
    Array.to_list p.Program.slots
    |> List.filter (fun (s : Program.slot) -> s.Program.role <> Program.Input)
    |> List.map (fun (s : Program.slot) ->
           (s.Program.sname, output_logical p bufs s.Program.sname))
  in
  (outs, r)
