(* The daemon's cross-session measurement store: a map from (measurement
   context, canonical program digest) to simulator results and
   quarantine decisions, shared by every session the daemon runs.

   Entries are namespaced by the context key (Workload.context_key), so
   sessions may only ever observe entries produced under an identical
   measurement configuration — sharing across contexts would change
   results; sharing within one is indistinguishable from a checkpoint
   restore (see Measure.shared_store).  Quarantine entries are the
   robustness headline: a candidate one session proved terminally
   failing is answered from quarantine by every later session instead of
   burning its retry budget again.

   Every call arrives on one domain (the engine steps its sessions there;
   pool workers only simulate), so the one mutex over both tables and
   the counters is never contended. *)

module Profiler = Alt_machine.Profiler
module Measure = Alt_tuner.Measure

type stats = {
  mutable result_hits : int;
  mutable result_inserts : int;
  mutable quarantine_hits : int;
  mutable quarantine_inserts : int;
}

type t = {
  lock : Mutex.t;
  results : (string, Profiler.result) Hashtbl.t;
  quarantine : (string, string) Hashtbl.t;
  stats : stats;
}

let create () =
  {
    lock = Mutex.create ();
    results = Hashtbl.create 1024;
    quarantine = Hashtbl.create 128;
    stats =
      {
        result_hits = 0;
        result_inserts = 0;
        quarantine_hits = 0;
        quarantine_inserts = 0;
      };
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Entries are keyed by "<ctx>/<program digest>"; [count] bumps the
   table's hit or insert counter. *)
let find t table ~count ~ctx key =
  locked t (fun () ->
      let r = Hashtbl.find_opt table (ctx ^ "/" ^ key) in
      if Option.is_some r then count t.stats;
      r)

let publish t table ~count ~ctx key v =
  let k = ctx ^ "/" ^ key in
  locked t (fun () ->
      if not (Hashtbl.mem table k) then begin
        Hashtbl.replace table k v;
        count t.stats
      end)

let find_result t =
  find t t.results ~count:(fun s -> s.result_hits <- s.result_hits + 1)

let publish_result t =
  publish t t.results ~count:(fun s -> s.result_inserts <- s.result_inserts + 1)

let find_quarantine t =
  find t t.quarantine ~count:(fun s ->
      s.quarantine_hits <- s.quarantine_hits + 1)

let publish_quarantine t =
  publish t t.quarantine ~count:(fun s ->
      s.quarantine_inserts <- s.quarantine_inserts + 1)

let view t ~ctx : Measure.shared_store =
  {
    Measure.s_find_result = find_result t ~ctx;
    s_publish_result = publish_result t ~ctx;
    s_find_quarantine = find_quarantine t ~ctx;
    s_publish_quarantine = publish_quarantine t ~ctx;
  }

let sizes t =
  locked t (fun () -> (Hashtbl.length t.results, Hashtbl.length t.quarantine))

let stats t =
  locked t (fun () ->
      let s = t.stats in
      {
        result_hits = s.result_hits;
        result_inserts = s.result_inserts;
        quarantine_hits = s.quarantine_hits;
        quarantine_inserts = s.quarantine_inserts;
      })
