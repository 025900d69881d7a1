(** Set-associative LRU cache model with explicit prefetch insertion.
    Addresses are byte addresses; only line tags are stored.

    In addition to the element-wise {!access}, a handle-based bulk
    interface and per-site cursors support the profiler (DESIGN.md §9):
    every entry point leaves the clock/stamp/tag state exactly equivalent
    to the corresponding sequence of plain [access] calls, so batched
    simulation stays counter-exact.  No entry point allocates. *)

type cfg = { size_bytes : int; assoc : int; line_bytes : int }

(** Live counters, observable in tests (e.g. the prefetcher behaviour
    behind the paper's Table 2).  A [prefetch_hit] is a demand hit served
    by a line that was installed by {!prefetch} and not yet
    demand-touched. *)
type stats = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_installs : int;
  mutable prefetch_hits : int;
}

type t

val create : cfg -> t
(** Geometry must be power-of-two sets and line size. *)

val dump : t -> int array * int array * bool array
(** Snapshot of [(tags, stamps, prefetched)], all [sets*assoc]-indexed;
    tag [-1] is an invalid way, and [prefetched] marks the valid ways
    installed by {!prefetch} and not yet demand-touched.  Two caches
    whose tags and prefetched bits agree and whose stamps induce the same
    per-set recency order behave identically on any future access
    sequence, [prefetch_hits] included — the state-level oracle the
    fast-path differential tests check beyond mere counter equality. *)

val reset : t -> unit
(** Invalidate all lines and zero the {!stats}: the state of a fresh
    {!create}, so one cache can serve many simulations.  Costs only the
    ways installed into since the last reset (each install into an
    invalid way, demand or prefetch, records its slot once), not the
    whole geometry. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on hit; on miss the line is installed
    with LRU eviction. *)

val access_way : t -> int -> int
(** Like {!access}, but returns the way slot now holding the line — a
    handle for {!touch_run} — encoded with the outcome so the call
    allocates nothing: the slot on a hit, [lnot slot] (negative) on a
    miss. *)

val slot_of : int -> int
(** The way slot of an {!access_way}/{!access_run} result. *)

val access_run : t -> int -> int -> int
(** [access_run t addr n] performs [n] consecutive demand accesses to the
    single cache line containing [addr] with one set/tag computation
    (after the first access the line is resident, so the remaining [n-1]
    are hits).  State and counters end exactly as after [n] successive
    [access t addr] calls.  Returns the first access's result, encoded as
    by {!access_way}. *)

val touch_run : t -> int -> int -> unit
(** [touch_run t slot n] replays [n] guaranteed-hit accesses to the line
    held by way slot [slot] in O(1).  Only valid when the line is known
    resident at [slot] and already demand-touched, with no line installed
    since — e.g. immediately after {!access_way}/{!access_run} on it. *)

(** {1 Cursors}

    A cursor memoizes, for one access site, the line it touched last and
    the way holding it.  While no line has been installed since, the next
    access to that line is a guaranteed hit and costs O(1) instead of a
    tag probe; every cursor operation leaves the same state and counters
    as the plain accesses it stands for.  A cursor belongs to one cache
    between resets. *)

type cursor

val cursor : unit -> cursor

val access_at : t -> cursor -> int -> int
(** [access_at t c addr] is [access_way t addr], in O(1) when [c] last
    touched [addr]'s line and nothing was installed since; [c] then
    points at that line. *)

val resident : t -> cursor -> int -> bool
(** [resident t c addr]: whether [addr]'s line is the line [c] touched
    last and is still held by its way, so that an access to [addr] would
    hit.  A cursor that has touched no line is resident nowhere. *)

val touch_at : t -> cursor -> int -> int -> unit
(** [touch_at t c addr n] performs [n] further demand accesses to [addr],
    which must be {!resident} for [c].  Equivalent to [n] successive
    [access t addr] calls. *)

val stats : t -> stats
(** The live counter record of this cache (mutated in place). *)

val prefetch : t -> int -> bool
(** Install a line without counting a demand access; [true] if newly
    installed. *)

val line_bytes : t -> int

val publish_obs : prefix:string -> t -> unit
(** Accumulate this cache's {!stats} into the global metrics registry as
    counters [prefix ^ ".accesses"], [".hits"], [".misses"],
    [".prefetch_installs"], [".prefetch_hits"].  No-op unless metrics
    collection is enabled. *)
