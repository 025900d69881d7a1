(* Per-layer numbers from a [lib/obs] trace of one repetition.

   Span totals pair each "E" record with the latest open "B" of the same
   name.  That is exact for [measure.batch], [checkpoint.save] and
   [profiler.run], which never yield mid-span; it is not for the tuner's
   own spans ([tuner.tune_alt]), whose begin/end records interleave under
   one name when the scheduler or the service suspends tuners as fibers,
   so the ledger never reads them and derives the tuner's time as a
   remainder instead.

   GBDT fit time comes from the [tuner.round] instants: [gbdt_fit_ms] is
   the cumulative fit time of the round's cost model, so a round's fit
   cost is the increment over the previous round of the same tuner (the
   whole value when it drops, i.e. a fresh cost model).  Rounds of
   different tuners interleave, so each round is attributed to its tuner
   by the marker the program or the ledger leaves around it:
   - [scheduler.pick] follows every scheduler step and names the task;
   - [graph_tuner.task] opens each task of the sequential per-task split;
   - [perfbench.serve.step], emitted by the ledger before each
     [Serve.step], names the session the round-robin engine steps.

   Only the records before the ledger's [perfbench.tune_end] instant
   count: what follows it is the ledger's own simulation and passes over
   the tuned models, not tuning. *)

open Alt

type t = {
  spans : (string, float * int) Hashtbl.t;  (** name -> (seconds, count) *)
  fit_s : float;
}

let span t name = Option.value ~default:(0.0, 0) (Hashtbl.find_opt t.spans name)
let span_s t name = fst (span t name)
let span_count t name = snd (span t name)

let tune_end = "perfbench.tune_end"

let read path : t =
  let records =
    match Tracecheck.parse_file path with
    | Ok rs -> rs
    | Error e -> failwith (Fmt.str "trace %s: %s" path e)
  in
  let rec before_end acc = function
    | [] -> failwith (Fmt.str "trace %s: no %s marker" path tune_end)
    | (r : Tracecheck.record) :: _
      when r.Tracecheck.ph = "I" && r.Tracecheck.name = tune_end ->
        List.rev acc
    | r :: rest -> before_end (r :: acc) rest
  in
  let records = before_end [] records in
  let spans = Hashtbl.create 16 in
  let opened : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let last_fit : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let fit_ms = ref 0.0 in
  let account stream v =
    let prev = Option.value ~default:0.0 (Hashtbl.find_opt last_fit stream) in
    fit_ms := !fit_ms +. (if v >= prev then v -. prev else v);
    Hashtbl.replace last_fit stream v
  in
  let current = ref None and pending = ref [] and tasks = ref 0 in
  let attr r k = List.assoc_opt k r.Tracecheck.attrs in
  List.iter
    (fun (r : Tracecheck.record) ->
      match (r.Tracecheck.ph, r.Tracecheck.name) with
      | "B", name ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt opened name) in
          Hashtbl.replace opened name (r.Tracecheck.ts :: stack);
          if name = "graph_tuner.task" then begin
            incr tasks;
            current := Some (Fmt.str "task%d" !tasks)
          end
      | "E", name -> (
          match Hashtbl.find_opt opened name with
          | Some (t0 :: rest) ->
              Hashtbl.replace opened name rest;
              let s, n =
                Option.value ~default:(0.0, 0) (Hashtbl.find_opt spans name)
              in
              Hashtbl.replace spans name
                (s +. (float_of_int (r.Tracecheck.ts - t0) *. 1e-9), n + 1)
          | _ -> failwith (Fmt.str "trace %s: unmatched end of %s" path name))
      | "I", "tuner.round" -> (
          match Option.bind (attr r "gbdt_fit_ms") Json.to_float_opt with
          | None -> ()
          | Some v -> (
              match !current with
              | Some stream -> account stream v
              | None -> pending := v :: !pending))
      | "I", "scheduler.pick" ->
          let task = Option.bind (attr r "task") Json.to_int_opt in
          let stream = Fmt.str "pick%d" (Option.value ~default:(-1) task) in
          List.iter (account stream) (List.rev !pending);
          pending := []
      | "I", "perfbench.serve.step" ->
          let req = Option.bind (attr r "req") Json.to_string_opt in
          current := Some ("req:" ^ Option.value ~default:"?" req)
      | _ -> ())
    records;
  if !pending <> [] then
    failwith (Fmt.str "trace %s: %d tuner rounds without a tuner" path
                (List.length !pending));
  { spans; fit_s = !fit_ms *. 1e-3 }
