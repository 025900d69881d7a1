(** Global metrics registry (DESIGN.md §11): named counters, gauges and
    fixed-bucket histograms, snapshotable and renderable as JSON.

    Collection is {e off by default}: {!incr}/{!add}/{!set}/{!observe}
    are no-ops until {!enable} (or {!set_output}/[ALT_METRICS]) turns it
    on, so an instrumented hot path costs one atomic-flag check and
    allocates nothing.  Counters are atomic and safe from pool worker
    domains; gauges and histograms must only be updated from the calling
    (tuning) domain.  Nothing in the tuner reads the registry, so
    enabling collection never changes a tuning trajectory (enforced by
    the differential suite in test/test_obs.ml). *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** {1 Registration}

    Instruments are global and idempotent: the same name returns the
    same instrument.  Registering a name under a different kind raises
    [Invalid_argument]. *)

val counter : string -> counter
val gauge : string -> gauge

val histogram : string -> buckets:float list -> histogram
(** [buckets] are the ascending upper bounds of the finite buckets; an
    implicit overflow bucket catches everything above the last bound.
    Raises [Invalid_argument] on an empty or unsorted list. *)

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val add_raw : counter -> int -> unit
(** Unconditional {!add}, bypassing the enabled gate: used to publish
    per-task stats structs into the registry at the end of a run so the
    CLI can print from the registry even at the defaults. *)

val set_raw : gauge -> float -> unit
(** Unconditional {!set}. *)

(** {1 Reads and snapshots} *)

type value =
  | Counter of int
  | Gauge of float option  (** [None] until the gauge is first set *)
  | Histogram of {
      buckets : (float * int) list;  (** (upper bound, count) per bucket *)
      overflow : int;
      count : int;
      sum : float;
    }

type metric = { name : string; value : value }

val counter_value : counter -> int
val gauge_value : gauge -> float option

val snapshot : unit -> metric list
(** Every registered instrument with its current value, sorted by name
    (deterministic output order). *)

val find : string -> metric option
val reset : unit -> unit
(** Zero every instrument (registration survives); for tests. *)

(** {1 Rendering and output} *)

val to_json : unit -> Json.t
(** [{"version":1,"metrics":[{"name":...,"kind":...,...},...]}]. *)

val set_output : string -> unit
(** Enable collection and write the final snapshot to the given path at
    process exit (the [--metrics FILE] CLI knob). *)

val configure_from_env : unit -> unit
(** Honour [ALT_METRICS=FILE]: like {!set_output} when set. *)
