(** On-disk tuning checkpoints.

    A checkpoint is a {e replay} checkpoint, not a process image: it
    stores the measurement cache and the quarantine table of the
    interrupted run (plus bookkeeping for validation).  Resuming re-runs
    the tuner from scratch over the warmed cache — and because cache hits
    charge budget exactly like fresh simulations, the resumed run walks
    the interrupted trajectory byte-identically while skipping the
    already-simulated work, then continues past the interruption point.
    No RNG, PPO or GBDT state needs to be serialized (see DESIGN.md §8). *)

module Profiler = Alt_machine.Profiler

type t = {
  fingerprint : string;
      (** {!Measure.fingerprint} of the run that wrote this checkpoint; a
          checkpoint only resumes a run with the same fingerprint *)
  rounds : int;  (** measurement rounds completed when saved *)
  spent : int;  (** measurement budget spent when saved *)
  best_latency : float;  (** best latency at save time (informational) *)
  rng_digest : string;
      (** digest of the tuner RNG state at save time; a resumed run
          reaching the same round must reproduce it exactly *)
  cache : (string * Profiler.result) list;
  quarantine : (string * string) list;
}

val save : path:string -> t -> unit
(** Write format 2: the prefix ["ALTCKPT"], a version byte [2], the
    payload length (8 bytes, big-endian), the payload's MD5 digest (16
    bytes), then the payload, the marshalled record (DESIGN.md §8).
    Atomic write (temp file + rename): a crash mid-save never corrupts
    an existing checkpoint.  Emits a ["checkpoint.save"] trace span when
    tracing is enabled. *)

val load : path:string -> t
(** Raises [Failure] with a message that starts with [path] on every
    malformed input: a file too short to hold the prefix and version, a
    foreign file (prefix mismatch), a format-version mismatch (a format
    1 file fails with "checkpoint format version 1, expected 2"), a
    truncated header, a payload length that disagrees with the file
    size, and a payload whose digest does not match.  All of these are
    checked before the payload is unmarshalled, so a flipped bit or a
    truncated tail never reaches Marshal. *)

val load_opt : path:string -> t option
(** [None] when [path] does not exist; otherwise {!load}. *)
