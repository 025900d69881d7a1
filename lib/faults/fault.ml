(* Deterministic fault injection (see the .mli).

   Every decision is derived from one MD5 digest of (seed, candidate key):
   the first three bytes draw the "does it fault" Bernoulli, the next two
   pick the failure mode and the flaky-attempt count.  Nothing here reads
   a clock or a global RNG, so the fault pattern commutes with pool size,
   batching, retries and checkpoint/resume. *)

type mode = Crash | Timeout | Flaky of int | Persistent

type t = { rate : float; seed : int }

exception Injected of string

let none = { rate = 0.0; seed = 0 }

let create ?(seed = 0) ~rate () =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Fault.create: rate must be in [0, 1]";
  { rate; seed }

let active t = t.rate > 0.0

(* Gated decision counters (DESIGN.md §11): how often the injector was
   consulted and which modes it drew.  Counters are atomic and only ever
   written — the injector never reads them — so enabling metrics cannot
   perturb the fault pattern. *)
let m_decisions = Alt_obs.Metrics.counter "fault.decisions"
let m_crash = Alt_obs.Metrics.counter "fault.injected.crash"
let m_timeout = Alt_obs.Metrics.counter "fault.injected.timeout"
let m_flaky = Alt_obs.Metrics.counter "fault.injected.flaky"
let m_persistent = Alt_obs.Metrics.counter "fault.injected.persistent"

let count_mode = function
  | None -> ()
  | Some Crash -> Alt_obs.Metrics.incr m_crash
  | Some Timeout -> Alt_obs.Metrics.incr m_timeout
  | Some (Flaky _) -> Alt_obs.Metrics.incr m_flaky
  | Some Persistent -> Alt_obs.Metrics.incr m_persistent

let decide t ~key =
  if t.rate <= 0.0 then None
  else begin
    Alt_obs.Metrics.incr m_decisions;
    let d = Digest.string (Printf.sprintf "fault|%d|%s" t.seed key) in
    let byte i = Char.code d.[i] in
    (* 24 uniform bits -> u in [0, 1) *)
    let u =
      float_of_int ((byte 0 lsl 16) lor (byte 1 lsl 8) lor byte 2)
      /. 16_777_216.0
    in
    let r =
      if u >= t.rate then None
      else
        (* mode mix: 25% crashes, 25% timeouts, 30% transient flakes
           (recoverable by retry), 20% persistent errors *)
        let m = byte 3 mod 100 in
        if m < 25 then Some Crash
        else if m < 50 then Some Timeout
        else if m < 80 then Some (Flaky (1 + (byte 4 mod 2)))
        else Some Persistent
    in
    count_mode r;
    r
  end

let backoff_ms ~attempt = 10.0 *. (2.0 ** float_of_int attempt)
