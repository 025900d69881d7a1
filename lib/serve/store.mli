(** The daemon's cross-session measurement store: two tables from
    (measurement context, canonical program digest) to simulator results
    and quarantine decisions, behind one mutex.  Sessions plug
    in through {!view}, which namespaces every entry by the session's
    {!Workload.context_key} — only sessions with an identical
    measurement configuration can observe each other's entries, which
    is what makes sharing trajectory-neutral.  A candidate quarantined
    by one session is answered from quarantine by every later session
    in the same context instead of being re-measured. *)

module Profiler = Alt_machine.Profiler
module Measure = Alt_tuner.Measure

type t

type stats = {
  mutable result_hits : int;  (** lookups served from another session *)
  mutable result_inserts : int;  (** distinct results published *)
  mutable quarantine_hits : int;
  mutable quarantine_inserts : int;
}

val create : unit -> t

val view : t -> ctx:string -> Measure.shared_store
(** The store as seen by one measurement context — pass the session's
    {!Workload.context_key}. *)

val find_result : t -> ctx:string -> string -> Profiler.result option
val publish_result : t -> ctx:string -> string -> Profiler.result -> unit
(** First writer wins: an existing entry is never overwritten, so every
    session observes one stable value per key. *)

val find_quarantine : t -> ctx:string -> string -> string option
val publish_quarantine : t -> ctx:string -> string -> string -> unit

val sizes : t -> int * int
(** [(results, quarantine)] entry totals. *)

val stats : t -> stats
(** A consistent copy of the hit/insert counters. *)
