(** The tuning-service engine: admission control with load shedding,
    deterministic cooperative scheduling of many tuning sessions,
    per-request round deadlines, and crash-safe journaling/recovery.

    IO-free — the daemon (or a test) drives it through {!submit} and
    {!step} and ships the returned [(request id, response JSON)] pairs
    over whatever transport it owns.  Because sessions are tuner fibers
    ({!Tuner.Step}) interleaved round-robin on one domain, the whole
    schedule is a pure function of the submission order: each session's
    result is byte-identical to a solo [tune-op] run of the same spec. *)

module Tuner = Alt_tuner.Tuner
module Pool = Alt_parallel.Pool
module Json = Alt_obs.Json

type config = {
  pool : Pool.t;  (** measurement pool shared by all sessions *)
  max_active : int;  (** sessions interleaved concurrently, >= 1 *)
  max_queue : int;  (** admitted-but-waiting FIFO bound, >= 0 *)
  store : Store.t;  (** cross-session result/quarantine store *)
  journal_dir : string option;
      (** where [<skey>.req.json] / [<skey>.ckpt] live; [None] disables
          durability (no recovery, no resume) *)
  default_deadline_rounds : int option;
      (** deadline applied to requests that carry none *)
}

val default_config :
  ?jobs:int ->
  ?max_active:int ->
  ?max_queue:int ->
  ?journal_dir:string ->
  ?default_deadline_rounds:int ->
  unit ->
  config
(** Fresh pool + store with the given knobs; defaults: [jobs:1],
    [max_active:4], [max_queue:8], no journal, no default deadline. *)

type t

val create : config -> t
(** Creates the journal directory if missing.  Raises
    [Invalid_argument] on a non-positive [max_active] or negative
    [max_queue]. *)

exception Interrupted
(** Injected by {!shutdown} into every started session ({!Tuner.Step.abort}):
    the session stops at its last checkpoint and is resumable from the
    journal. *)

exception Deadline_exceeded
(** Injected when a session exhausts its per-request round deadline. *)

val submit : t -> Proto.request -> (string * Json.t) list
(** Feed one request in.  [Compile]/[Stats]/[Shutdown] are answered
    synchronously.  A [Tune] is admitted (empty response — the real
    one arrives from a later {!step}), attached to an already-running
    session with the same spec, or shed with
    [{"status":"rejected","reason":"overloaded","retry_after_ms":...}]
    when both the active set and the wait queue are full.  Shedding
    never perturbs admitted sessions. *)

val step : t -> (string * Json.t) list
(** Advance the scheduler one step: run the next active session to its
    next yield (one measurement round, checkpointed before the yield).
    Returns the responses that became due — completion
    ([{"status":"ok", "result":...}] for every attached id), deadline
    expiry ([{"status":"deadline","resumable":true}]; the checkpoint
    survives so resubmission resumes), or failure
    ([{"status":"error"}]).  No-op returning [[]] when idle. *)

val has_work : t -> bool
(** [true] while any session is runnable; drive {!step} until false to
    drain. *)

val shutdown : t -> (string * Json.t) list
(** Graceful drain-less shutdown: abort every in-flight fiber at its
    last durable yield point, answer every attached id with
    [{"status":"interrupted","resumable":true}], keep all journals
    (a restarted engine {!recover}s them), and close the pool. *)

val recover : t -> int
(** Re-admit every journaled session from [journal_dir], bypassing the
    admission limit (recovered work is never shed); their fibers resume
    from their checkpoints, replaying interrupted trajectories
    byte-identically.  Torn request journals are parked as [.bad].
    Returns the number of sessions recovered. *)

val json_of_tuner_result : Tuner.result -> Json.t
(** The canonical JSON rendering of a tuning trajectory used in [ok]
    responses — exposed so tests can compare a daemon response against
    a solo run by exact JSON equality. *)

(** {1 Counters} *)

val completed_count : t -> int
val shed_count : t -> int

val rounds_stepped : t -> int
(** Total measurement rounds stepped across all sessions — the daemon's
    crash-injection hook counts these. *)
