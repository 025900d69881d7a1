(* Span-based structured tracing (DESIGN.md §11).

   One record per line of JSONL, three phases: "B" (span begin), "E"
   (span end), "I" (instant event).  The sink stamps every record with a
   strictly increasing sequence number and clamps timestamps to be
   non-decreasing in emission order, so a trace file is always
   well-formed even when records produced on different domains carry
   slightly skewed clock readings.

   Determinism contract (the part the round-trip tests pin down): the
   emitted record *stream* — names, phases, attributes, nesting — is a
   pure function of the traced computation, independent of --jobs.
   Records produced inside a pool task are captured into a per-task
   buffer on the worker domain and flushed by the pool on the calling
   domain in submission order (Pool.run_slots), so two identical runs
   produce byte-identical traces modulo the "ts" fields.  Only
   timestamps vary between runs; validators normalize them.

   Trajectory neutrality: tracing reads wall clocks and writes to its
   own sink — it never touches an RNG, a budget counter or any tuner
   state, so enabling it cannot change a tuning result (enforced by the
   differential suite in test/test_obs.ml).  The disabled path of
   {!with_span} is one atomic-flag check and a direct call of the traced
   function: no allocation, which is what keeps instrumented inner loops
   (Profiler.run) at zero overhead by default. *)

type record = {
  ph : char; (* 'B' | 'E' | 'I' *)
  name : string;
  ts : int; (* nanoseconds since the epoch, pre-clamping *)
  attrs : (string * Json.t) list;
}

type sink = {
  oc : out_channel;
  lock : Mutex.t;
  mutable seq : int;
  mutable last_ts : int;
}

let sink : sink option Atomic.t = Atomic.make None

let enabled () = Atomic.get sink <> None

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)
let now_ms () = Unix.gettimeofday () *. 1e3

(* ------------------------------------------------------------------ *)
(* Sink                                                               *)
(* ------------------------------------------------------------------ *)

let render_line seq ts (r : record) =
  let buf = Stdlib.Buffer.create 128 in
  let json =
    Json.Obj
      [
        ("seq", Json.Int seq);
        ("ts", Json.Int ts);
        ("ph", Json.String (String.make 1 r.ph));
        ("name", Json.String r.name);
        ("attrs", Json.Obj r.attrs);
      ]
  in
  Stdlib.Buffer.add_string buf (Json.to_string json);
  Stdlib.Buffer.add_char buf '\n';
  Stdlib.Buffer.contents buf

let sink_write (r : record) =
  match Atomic.get sink with
  | None -> () (* closed mid-flight: drop silently *)
  | Some s ->
      Mutex.lock s.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () ->
          let ts = if r.ts > s.last_ts then r.ts else s.last_ts in
          s.last_ts <- ts;
          let seq = s.seq in
          s.seq <- seq + 1;
          output_string s.oc (render_line seq ts r))

let close () =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Atomic.set sink None;
      Mutex.lock s.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.lock)
        (fun () -> close_out_noerr s.oc)

let at_exit_installed = ref false

let configure ~path =
  close ();
  let oc = open_out path in
  Atomic.set sink
    (Some { oc; lock = Mutex.create (); seq = 0; last_ts = 0 });
  if not !at_exit_installed then begin
    at_exit_installed := true;
    Stdlib.at_exit close
  end

let configure_from_env () =
  match Sys.getenv_opt "ALT_TRACE" with
  | Some p when p <> "" -> configure ~path:p
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-domain capture buffers (pool integration)                      *)
(* ------------------------------------------------------------------ *)

(* Records produced while a capture buffer is active on the current
   domain land in the buffer instead of the sink; the pool flushes
   buffers on the calling domain in submission order.  Buffers nest
   (a stack per domain), though the pool's no-nesting rule means the
   stack never actually exceeds depth 1 today. *)

type buffer = record list ref

let buf_stack : buffer list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let emit (r : record) =
  let stack = Domain.DLS.get buf_stack in
  match !stack with
  | b :: _ -> b := r :: !b
  | [] -> sink_write r

let task_begin () : buffer option =
  if not (enabled ()) then None
  else begin
    let b : buffer = ref [] in
    let stack = Domain.DLS.get buf_stack in
    stack := b :: !stack;
    Some b
  end

let task_end (buf : buffer option) =
  match buf with
  | None -> ()
  | Some _ ->
      let stack = Domain.DLS.get buf_stack in
      (match !stack with _ :: tl -> stack := tl | [] -> ())

let flush_buffer (buf : buffer option) =
  match buf with
  | None -> ()
  | Some b -> List.iter sink_write (List.rev !b)

(* ------------------------------------------------------------------ *)
(* Span and event API                                                 *)
(* ------------------------------------------------------------------ *)

let instant ?(attrs = []) name =
  if enabled () then emit { ph = 'I'; name; ts = now_ns (); attrs }

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    emit { ph = 'B'; name; ts = now_ns (); attrs };
    (* the end record is emitted even when [f] raises, so span nesting in
       the trace stays well-formed under injected crashes *)
    Fun.protect
      ~finally:(fun () -> emit { ph = 'E'; name; ts = now_ns (); attrs = [] })
      f
  end
