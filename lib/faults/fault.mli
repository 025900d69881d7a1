(** Deterministic fault injection for the measurement pipeline.

    Real auto-tuners lose a large fraction of their on-device measurements
    to build errors, kernel timeouts and flaky devices, and only work
    because the search records those failures (with a penalty cost) and
    keeps going.  Our measurements are simulations that never fail on
    their own, so robustness must be injectable: this module decides, per
    measured candidate, whether its simulation fails and how.

    The injector is a pure function of [(seed, candidate key)] — the key
    being the canonical-program digest of {!Alt_tuner.Measure} — so the
    injected fault pattern is byte-identical across runs, across pool
    sizes, and across checkpoint/resume, which is what makes the recovery
    machinery testable. *)

(** What happens to a faulted candidate's simulation attempts. *)
type mode =
  | Crash  (** every attempt raises {!Injected} (a simulator crash) *)
  | Timeout
      (** every attempt blows through the per-measurement point budget and
          is killed by the watchdog *)
  | Flaky of int
      (** transient: the first [k] attempts fail, the next one succeeds *)
  | Persistent  (** every attempt reports a measurement error *)

type t = { rate : float; seed : int }
(** An injector: candidates fault with probability [rate] (under the
    deterministic per-key draw), patterned by [seed]. *)

exception Injected of string
(** The exception raised by {!Crash}-mode attempts (inside pool workers,
    so the pool's failure draining is exercised for real). *)

val none : t
(** No faults; the measurement path is byte-identical to an injector-free
    build. *)

val create : ?seed:int -> rate:float -> unit -> t
(** Raises [Invalid_argument] unless [0 <= rate <= 1]. *)

val active : t -> bool

val decide : t -> key:string -> mode option
(** The fault assigned to candidate [key]: [None] with probability
    [1 - rate].  Pure and deterministic in [(t.seed, key)]. *)

val backoff_ms : attempt:int -> float
(** Deterministic exponential backoff schedule charged (as simulated
    milliseconds, not wall-clock sleep) before retry [attempt + 1]. *)
