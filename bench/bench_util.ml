(* Shared infrastructure for the experiment harness.

   Every experiment of the paper's evaluation (Figs. 1, 9-13; Tables 2-3)
   has a module here that regenerates its rows on the machine simulator.
   ALT_BENCH_SCALE=smoke|quick|full controls workload sizes and budgets
   (quick is the default; the mapping to the paper's settings is recorded
   in EXPERIMENTS.md). *)

open Alt

type scale = Smoke | Quick | Full

let scale =
  match Sys.getenv_opt "ALT_BENCH_SCALE" with
  | Some "smoke" -> Smoke
  | Some "full" -> Full
  | Some "quick" | None -> Quick
  | Some s -> Fmt.failwith "unknown ALT_BENCH_SCALE %S" s

let scale_name =
  match scale with Smoke -> "smoke" | Quick -> "quick" | Full -> "full"

let pick ~smoke ~quick ~full =
  match scale with Smoke -> smoke | Quick -> quick | Full -> full

let cores = Domain.recommended_domain_count ()

(* The checkout the numbers were measured on, as [git describe --always
   --dirty] prints it: a "-dirty" suffix means uncommitted changes on
   top of that commit.  "unknown" outside a git checkout. *)
let commit =
  lazy
    (try
       let ic =
         Unix.open_process_in "git describe --always --dirty 2>/dev/null"
       in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with Unix.Unix_error _ | Sys_error _ -> "unknown")

(* The ["cores"] and ["commit"] members every [BENCH_*.json] carries,
   without a trailing comma. *)
let provenance_json () =
  Fmt.str "\"cores\": %d, \"commit\": %S" cores (Lazy.force commit)

(* Write a bench's [BENCH_*.json]: the committed file at the repository
   root for quick and full runs, and a copy under _build/ for smoke runs
   (the gates [make check] runs), so a gate never overwrites committed
   numbers. *)
let write_bench file contents =
  let path =
    match scale with
    | Smoke ->
        (try Sys.mkdir "_build" 0o755 with Sys_error _ -> ());
        Filename.concat "_build" file
    | Quick | Full -> file
  in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fmt.pr "wrote %s@." path

(* Measurement parallelism for the tuning drivers.  Defaults from ALT_JOBS;
   bench/main.ml overrides it from a --jobs flag.  0 = all cores.  Tuning
   results are identical for every value (the engine's determinism
   contract); only wall-clock time changes. *)
let jobs =
  ref
    (match Sys.getenv_opt "ALT_JOBS" with
    | Some s -> (try int_of_string (String.trim s) with _ -> 1)
    | None -> 1)

let effective_jobs () =
  if !jobs <= 0 then Pool.default_jobs () else !jobs

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let geomean xs =
  match xs with
  | [] -> 1.0
  | _ ->
      Float.exp
        (List.fold_left (fun a x -> a +. Float.log x) 0.0 xs
        /. float_of_int (List.length xs))

(* Normalized performance as in the paper's bar charts: best latency of the
   row = 1.0, others proportionally lower. *)
let normalize (latencies : (string * float) list) : (string * float) list =
  let best =
    List.fold_left (fun a (_, l) -> Float.min a l) Float.infinity latencies
  in
  List.map (fun (n, l) -> (n, best /. l)) latencies

let pp_row ppf (label, cells) =
  Fmt.pf ppf "%-26s %a@." label
    Fmt.(list ~sep:(any "  ") (fun ppf (n, v) -> Fmt.pf ppf "%s=%.3f" n v))
    cells

let timer = Unix.gettimeofday

let with_elapsed name f =
  let t0 = timer () in
  let r = f () in
  Fmt.pr "@.[%s finished in %.1fs]@." name (timer () -. t0);
  r

(* deterministic machine list per scale *)
let machines =
  pick
    ~smoke:[ Machine.intel_cpu ]
    ~quick:[ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]
    ~full:[ Machine.intel_cpu; Machine.nvidia_gpu; Machine.arm_cpu ]
