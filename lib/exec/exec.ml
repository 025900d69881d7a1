(* Exec-backend measurement (DESIGN.md §12).

   Compile once outside timing; re-zero non-input buffers before every
   run, so every timed run starts from the same state (lowered programs
   initialize what they reduce into, but a hand-built nest without an
   init store would accumulate into the previous run's outputs); time
   only the kernel invocation.  Median-of-repeats is the reported latency:
   robust to the one-off scheduling hiccups that plague wall-clock
   microbenchmarks.

   The Virtual clock exists for determinism: fault-injection and
   checkpoint tests need exec-backend measurements that are a pure
   function of the candidate, byte-identical across runs and pool
   orders.  Under Virtual the kernel executes exactly once (outputs are
   still produced and checked), and every "sample" is [f prog]. *)

module Program = Alt_ir.Program
module Metrics = Alt_obs.Metrics
module Trace = Alt_obs.Trace
module Json = Alt_obs.Json

type clock = Wall | Virtual of (Program.t -> float)
type cfg = { warmup : int; repeats : int; clock : clock }

let default_cfg = { warmup = 2; repeats = 5; clock = Wall }

type wall = {
  median_ms : float;
  mean_ms : float;
  min_ms : float;
  max_ms : float;
  samples : float array;
  macro_groups : int;
  generic_groups : int;
}

(* Observability: counters are cheap and domain-safe; the histogram is
   only touched from the measuring (tuning) domain. *)
let m_compiles = Metrics.counter "exec.compiles"
let m_runs = Metrics.counter "exec.runs"
let m_macro_groups = Metrics.counter "exec.macro_groups"
let m_generic_groups = Metrics.counter "exec.generic_groups"

let h_wall =
  Metrics.histogram "exec.wall_ms"
    ~buckets:[ 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 ]

let median sorted =
  let n = Array.length sorted in
  if n land 1 = 1 then sorted.(n / 2)
  else 0.5 *. (sorted.((n / 2) - 1) +. sorted.(n / 2))

let summarize (k : Kernel.t) samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let sum = Array.fold_left ( +. ) 0.0 sorted in
  {
    median_ms = median sorted;
    mean_ms = sum /. float_of_int n;
    min_ms = sorted.(0);
    max_ms = sorted.(n - 1);
    samples;
    macro_groups = k.Kernel.stats.Kernel.macro_groups;
    generic_groups = k.Kernel.stats.Kernel.generic_groups;
  }

let measure_inner cfg prog ~bufs =
  let k = Kernel.compile prog ~bufs in
  let samples =
    match cfg.clock with
    | Virtual f ->
        (* one real execution for the outputs; pseudo-time for the rest *)
        Kernel.reset_non_inputs k;
        k.Kernel.run ();
        Array.make cfg.repeats (f prog)
    | Wall ->
        for _ = 1 to cfg.warmup do
          Kernel.reset_non_inputs k;
          k.Kernel.run ()
        done;
        Array.init cfg.repeats (fun _ ->
            Kernel.reset_non_inputs k;
            let t0 = Unix.gettimeofday () in
            k.Kernel.run ();
            let t1 = Unix.gettimeofday () in
            (t1 -. t0) *. 1e3)
  in
  let w = summarize k samples in
  if Metrics.enabled () then begin
    Metrics.incr m_compiles;
    Metrics.add m_runs
      (match cfg.clock with
      | Virtual _ -> 1
      | Wall -> cfg.warmup + cfg.repeats);
    Metrics.add m_macro_groups w.macro_groups;
    Metrics.add m_generic_groups w.generic_groups;
    Metrics.observe h_wall w.median_ms
  end;
  w

let measure ?(cfg = default_cfg) prog ~bufs =
  if cfg.repeats < 1 then invalid_arg "Exec.measure: repeats < 1";
  if cfg.warmup < 0 then invalid_arg "Exec.measure: warmup < 0";
  if Trace.enabled () then
    Trace.with_span "exec.measure"
      ~attrs:
        [
          ("program", Json.String prog.Program.pname);
          ("repeats", Json.Int cfg.repeats);
          ( "clock",
            Json.String
              (match cfg.clock with Wall -> "wall" | Virtual _ -> "virtual") );
        ]
      (fun () -> measure_inner cfg prog ~bufs)
  else measure_inner cfg prog ~bufs

let spread w =
  if w.median_ms <= 0.0 then 0.0
  else (w.max_ms -. w.min_ms) /. w.median_ms
