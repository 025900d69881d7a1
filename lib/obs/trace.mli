(** Span-based structured tracing (DESIGN.md §11).

    Off by default: until {!configure} (or [ALT_TRACE=FILE]) installs a
    sink, {!with_span} is one flag check plus a direct call of the traced
    function — no allocation — and {!instant} is a no-op.  When enabled,
    records are written as JSONL, one object per line:

    {v {"seq":12,"ts":1754500000123456000,"ph":"B","name":"measure.batch","attrs":{"pending":7}} v}

    [ph] is ["B"] (span begin), ["E"] (span end) or ["I"] (instant).
    The sink assigns strictly increasing [seq] numbers and clamps [ts]
    (nanoseconds) to be non-decreasing in emission order.

    Records produced inside pool tasks are captured into per-task
    buffers ({!task_begin}/{!task_end}) and flushed by the pool on the
    calling domain in submission order ({!flush_buffer}), so the record
    stream is identical for every [--jobs] value, modulo timestamps.

    Tracing reads clocks and writes to its own sink only — it never
    touches tuner state, so enabling it cannot change a tuning
    trajectory (enforced by the differential suite in
    test/test_obs.ml). *)

val enabled : unit -> bool

val configure : path:string -> unit
(** Open (truncate) [path] as the trace sink; closed at process exit. *)

val configure_from_env : unit -> unit
(** Honour [ALT_TRACE=FILE]: like {!configure} when set. *)

val close : unit -> unit

(** {1 Spans and events} *)

val with_span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] emits a ["B"] record, runs [f], and emits the
    matching ["E"] record even when [f] raises.  Call sites with
    non-trivial [attrs] should gate on {!enabled} themselves to avoid
    building the attribute list on the disabled path. *)

val instant : ?attrs:(string * Json.t) list -> string -> unit

(** {1 Per-task capture buffers (pool integration)}

    A worker calls {!task_begin} before running a task body and
    {!task_end} after; records emitted in between land in the returned
    buffer instead of the sink.  The pool then calls {!flush_buffer} on
    the calling domain, in submission order, once the batch has joined.
    All three are no-ops while tracing is disabled ([task_begin] returns
    [None]). *)

type buffer

val task_begin : unit -> buffer option
val task_end : buffer option -> unit
val flush_buffer : buffer option -> unit

(** {1 Clocks} *)

val now_ms : unit -> float
