(** A deterministic, work-stealing-free task pool on OCaml 5 domains.

    The pool exists so the tuner's "on-device measurements" (trace-driven
    cache simulations) can run concurrently while the tuning trajectory
    stays byte-identical to a serial run: every entry point returns
    results in submission order, regardless of which domain executed which
    task or in what order tasks finished.  Tasks are distributed by an
    atomic cursor over the submission list (work sharing, no stealing, no
    reordering).

    Two failure disciplines are offered:

    - {!map} / {!map_array} raise on the first failure.  A raising task
      never poisons the batch: with [jobs > 1] the whole batch still
      drains (no worker domain is left hung), all domains are joined, and
      then the exception of the {e lowest-indexed} failing task is
      re-raised as [Task_failed (index, exn)] with the task's original
      backtrace.  With [jobs = 1] no domain is spawned, tasks run in
      submission order on the calling domain, and the first failure
      propagates immediately (later tasks never run).
    - {!map_result} never raises (beyond
      [Nested_pool]): each task's exception is captured and surfaced as
      its own [Error] outcome in submission order, and {e every} task runs
      for {e every} [jobs] value — the result list is identical for
      [jobs = 1] and [jobs = N].  This is the discipline the fault-tolerant
      measurement pipeline is built on.

    Determinism contract:
    - [map pool f xs] returns exactly [List.map f xs] whenever no task
      raises, for every pool size;
    - [map_result pool f xs] is the same list of per-task outcomes for
      every pool size;
    - nested use (calling back into the pool from inside a pool task) is
      rejected with [Nested_pool], because worker domains draining an
      inner batch while holding outer-batch tasks would nondeterministically
      interleave budget accounting upstream. *)

type t

exception Nested_pool
(** Raised when a pool entry point is called from inside a pool task. *)

exception Task_failed of int * exn
(** [Task_failed (i, e)]: the task at submission index [i] raised [e].
    Raised by {!map} / {!map_array} with the failing task's original
    backtrace attached. *)

exception Closed
(** Raised by every mapping entry point once {!shutdown} has closed the
    pool.  A batch admitted before the close always runs to completion
    first — submissions racing a shutdown either deliver their full
    result or raise [Closed] having run nothing; no task is ever lost or
    run twice. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool that runs at most [jobs] tasks
    concurrently ([jobs - 1] helper domains plus the calling domain).
    Default 1 (serial).  Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int

val default_jobs : unit -> int
(** The runtime's recommended domain count — a sensible [--jobs] value. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map preserving submission order; raises [Task_failed] on the
    lowest-indexed failing task (see the failure discipline above). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val map_result : t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Parallel map surfacing each task's exception as a per-task [Error]
    outcome, in submission order.  Every task runs; never raises except
    [Nested_pool]. *)

(** {1 Lifecycle}

    Worker domains are spawned per batch and joined before every entry
    point returns, so the pool holds no resident resources; the lifecycle
    API exists for services that must guarantee a quiescent point — a
    graceful daemon drain — and reject work submitted after it. *)

val shutdown : t -> unit
(** Graceful stop: atomically closes the pool to new batches, then blocks
    until every in-flight batch has drained (all their tasks completed
    and their domains joined).  The admission check and the close
    serialize on one lock, so a submission racing [shutdown] either runs
    to completion before [shutdown] returns or raises {!Closed} without
    running any task.  Idempotent; safe to call from another domain; must
    not be called from inside a pool task (it would deadlock on its own
    batch). *)

val drain : t -> unit
(** Block until every in-flight batch has completed, without closing the
    pool to new work. *)

val is_closed : t -> bool
