(* The daemon's cross-session measurement store: a sharded map from
   (measurement context, canonical program digest) to simulator results
   and quarantine decisions, shared by every session the daemon runs.

   Entries are namespaced by the context key (Workload.context_key), so
   sessions may only ever observe entries produced under an identical
   measurement configuration — sharing across contexts would change
   results; sharing within one is indistinguishable from a checkpoint
   restore (see Measure.shared_store).  Quarantine entries are the
   robustness headline: a candidate one session proved terminally
   failing is answered from quarantine by every later session instead of
   burning its retry budget again.

   Shards are plain Hashtbls behind per-shard mutexes.  The tuner only
   calls into the store from the scheduler domain today (sessions are
   cooperatively interleaved, and pool workers never touch task state),
   but the store is the one structure a future multi-domain daemon would
   share, so it is locked now — the per-shard cost is one uncontended
   mutex acquisition per lookup. *)

module Profiler = Alt_machine.Profiler
module Measure = Alt_tuner.Measure

type shard = {
  lock : Mutex.t;
  results : (string, Profiler.result) Hashtbl.t;
  quarantine : (string, string) Hashtbl.t;
}

type stats = {
  mutable result_hits : int;
  mutable result_inserts : int;
  mutable quarantine_hits : int;
  mutable quarantine_inserts : int;
}

type t = { shards : shard array; stats : stats; slock : Mutex.t }

let create ?(shards = 16) () =
  if shards < 1 then invalid_arg "Store.create: shards must be >= 1";
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            results = Hashtbl.create 64;
            quarantine = Hashtbl.create 8;
          });
    stats =
      {
        result_hits = 0;
        result_inserts = 0;
        quarantine_hits = 0;
        quarantine_inserts = 0;
      };
    slock = Mutex.create ();
  }

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Entries are keyed by "<ctx>/<program digest>"; the shard is chosen by
   the combined key's hash so one hot context still spreads over all
   shards. *)
let slot t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

let find_result t ~ctx key =
  let k = ctx ^ "/" ^ key in
  let s = slot t k in
  let r = locked s.lock (fun () -> Hashtbl.find_opt s.results k) in
  (match r with
  | Some _ -> locked t.slock (fun () -> t.stats.result_hits <- t.stats.result_hits + 1)
  | None -> ());
  r

let publish_result t ~ctx key result =
  let k = ctx ^ "/" ^ key in
  let s = slot t k in
  locked s.lock (fun () ->
      if not (Hashtbl.mem s.results k) then begin
        Hashtbl.replace s.results k result;
        locked t.slock (fun () ->
            t.stats.result_inserts <- t.stats.result_inserts + 1)
      end)

let find_quarantine t ~ctx key =
  let k = ctx ^ "/" ^ key in
  let s = slot t k in
  let r = locked s.lock (fun () -> Hashtbl.find_opt s.quarantine k) in
  (match r with
  | Some _ ->
      locked t.slock (fun () ->
          t.stats.quarantine_hits <- t.stats.quarantine_hits + 1)
  | None -> ());
  r

let publish_quarantine t ~ctx key reason =
  let k = ctx ^ "/" ^ key in
  let s = slot t k in
  locked s.lock (fun () ->
      if not (Hashtbl.mem s.quarantine k) then begin
        Hashtbl.replace s.quarantine k reason;
        locked t.slock (fun () ->
            t.stats.quarantine_inserts <- t.stats.quarantine_inserts + 1)
      end)

let view t ~ctx : Measure.shared_store =
  {
    Measure.s_find_result = find_result t ~ctx;
    s_publish_result = publish_result t ~ctx;
    s_find_quarantine = find_quarantine t ~ctx;
    s_publish_quarantine = publish_quarantine t ~ctx;
  }

let sizes t =
  Array.fold_left
    (fun (r, q) s ->
      locked s.lock (fun () ->
          (r + Hashtbl.length s.results, q + Hashtbl.length s.quarantine)))
    (0, 0) t.shards

let stats t =
  locked t.slock (fun () ->
      {
        result_hits = t.stats.result_hits;
        result_inserts = t.stats.result_inserts;
        quarantine_hits = t.stats.quarantine_hits;
        quarantine_inserts = t.stats.quarantine_inserts;
      })
