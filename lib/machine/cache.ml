(* Set-associative LRU cache model.

   The simulator substitutes for the paper's hardware testbeds: data layout
   optimizations pay off through spatial locality, prefetch friendliness and
   reuse distance, which is exactly what a cache model measures.  Addresses
   are byte addresses; the cache stores line tags only (data lives in the
   program buffers).

   Besides the element-wise [access] entry point, the model exposes a
   handle-based fast interface for the profiler (DESIGN.md §9):
   [access_way] returns the way slot that served an access, [touch_run]
   replays [n] guaranteed-hit accesses to that slot in O(1), and a
   [cursor] memoizes an access site's line and way, revalidated through
   [gen], which counts line installs.  Every entry point keeps the
   clock/stamp state exactly equivalent to the corresponding sequence of
   plain [access] calls, which is what makes the fast path counter-exact.
   All of them share one probe loop and allocate nothing: a hit and its
   way slot travel in one int (the slot, or [lnot slot] on a miss). *)

type cfg = { size_bytes : int; assoc : int; line_bytes : int }

type stats = {
  mutable accesses : int; (* demand accesses *)
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_installs : int; (* prefetches that brought a new line *)
  mutable prefetch_hits : int; (* demand hits served by a prefetched line *)
}

type t = {
  cfg : cfg;
  sets : int;
  assoc : int;
  line_shift : int;
  tags : int array; (* sets * assoc; -1 = invalid *)
  stamp : int array; (* LRU stamps, same indexing *)
  pref : bool array; (* line was prefetched and not yet demand-touched *)
  filled : int array; (* slots installed into since the last reset *)
  mutable nfilled : int;
  mutable clock : int;
  mutable gen : int; (* bumped on every line install (demand or prefetch) *)
  st : stats;
}

let log2_exact n =
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Cache.log2_exact: not a power of two"
  else go 0

let create cfg =
  let lines = cfg.size_bytes / cfg.line_bytes in
  if lines mod cfg.assoc <> 0 then invalid_arg "Cache.create: geometry";
  let sets = lines / cfg.assoc in
  ignore (log2_exact cfg.line_bytes);
  ignore (log2_exact sets);
  {
    cfg;
    sets;
    assoc = cfg.assoc;
    line_shift = log2_exact cfg.line_bytes;
    tags = Array.make (sets * cfg.assoc) (-1);
    stamp = Array.make (sets * cfg.assoc) 0;
    pref = Array.make (sets * cfg.assoc) false;
    filled = Array.make (sets * cfg.assoc) 0;
    nfilled = 0;
    clock = 0;
    gen = 0;
    st =
      {
        accesses = 0;
        hits = 0;
        misses = 0;
        prefetch_installs = 0;
        prefetch_hits = 0;
      };
  }

let dump t =
  ( Array.copy t.tags,
    Array.copy t.stamp,
    Array.mapi (fun i p -> p && t.tags.(i) >= 0) t.pref )

(* Only installs move a slot off [create]'s state (a hit or a touch needs
   a valid way), and [install] records every slot it fills while invalid,
   so clearing the recorded slots restores all of it: a reset costs the
   ways a run filled, not the whole geometry. *)
let reset t =
  for i = 0 to t.nfilled - 1 do
    let slot = t.filled.(i) in
    t.tags.(slot) <- -1;
    t.stamp.(slot) <- 0;
    t.pref.(slot) <- false
  done;
  t.nfilled <- 0;
  t.clock <- 0;
  t.gen <- 0;
  t.st.accesses <- 0;
  t.st.hits <- 0;
  t.st.misses <- 0;
  t.st.prefetch_installs <- 0;
  t.st.prefetch_hits <- 0

let stats t = t.st
let slot_of w = if w >= 0 then w else lnot w

(* The one probe loop behind every entry point: the way slot holding
   [line] among the set's slots [i..last], or [lnot] the set's LRU victim
   (its first least-recently stamped way) when the line is absent.  The
   victim scan runs on misses only.  Top-level and closure-free, so a
   probe allocates nothing. *)
let rec victim_from (stamp : int array) last i victim =
  if i > last then victim
  else
    victim_from stamp last (i + 1)
      (if stamp.(i) < stamp.(victim) then i else victim)

let rec probe_from (tags : int array) stamp (line : int) base last i =
  if tags.(i) = line then i
  else if i = last then lnot (victim_from stamp last (base + 1) base)
  else probe_from tags stamp line base last (i + 1)

let probe t line =
  let base = (line land (t.sets - 1)) * t.assoc in
  probe_from t.tags t.stamp line base (base + t.assoc - 1) base

let install t slot line ~prefetched =
  if t.tags.(slot) = -1 then begin
    t.filled.(t.nfilled) <- slot;
    t.nfilled <- t.nfilled + 1
  end;
  t.tags.(slot) <- line;
  t.stamp.(slot) <- t.clock;
  t.pref.(slot) <- prefetched;
  t.gen <- t.gen + 1

(* Demand access: the way slot now holding the line on a hit, [lnot slot]
   on a miss (the line is installed in the LRU way). *)
let access_way t addr =
  let line = addr lsr t.line_shift in
  let w = probe t line in
  t.clock <- t.clock + 1;
  t.st.accesses <- t.st.accesses + 1;
  if w >= 0 then begin
    t.stamp.(w) <- t.clock;
    t.st.hits <- t.st.hits + 1;
    if t.pref.(w) then begin
      t.pref.(w) <- false;
      t.st.prefetch_hits <- t.st.prefetch_hits + 1
    end
  end
  else begin
    install t (lnot w) line ~prefetched:false;
    t.st.misses <- t.st.misses + 1
  end;
  w

(* Returns true on hit.  On miss the line is installed (LRU eviction). *)
let access t addr = access_way t addr >= 0

(* [n] further guaranteed-hit accesses to the line held by [slot]: one
   clock advance per access, stamp refreshed to the last one — the exact
   state [n] successive hitting [access] calls would leave.  Only valid
   immediately after a demand access to that slot with no install in
   between (a cursor's [c_gen] records exactly that). *)
let touch_run t slot n =
  if n > 0 then begin
    t.clock <- t.clock + n;
    t.stamp.(slot) <- t.clock;
    t.st.accesses <- t.st.accesses + n;
    t.st.hits <- t.st.hits + n
  end

(* [n] consecutive demand accesses to the single line containing [addr]
   with one set/tag computation: equivalent to [n] successive [access t
   addr] calls (after the first, the line is resident and every further
   access hits).  Returns the first access's handle, as [access_way]. *)
let access_run t addr n =
  let w = access_way t addr in
  touch_run t (slot_of w) (n - 1);
  w

(* A memoized residency handle for one access site: the line the site
   touched last, the way holding it and the [gen] at that moment.  While
   no line has been installed since, that line is still resident and its
   prefetched bit clear, so the next access to it is a guaranteed hit and
   costs O(1) instead of a tag probe.  A cursor belongs to one cache
   between resets. *)
type cursor = { mutable c_line : int; mutable c_way : int; mutable c_gen : int }

let cursor () = { c_line = -1; c_way = 0; c_gen = -1 }

(* [access_way] through a cursor, which it then points at [addr]'s line. *)
let access_at t c addr =
  let line = addr lsr t.line_shift in
  if c.c_line = line && c.c_gen = t.gen then begin
    touch_run t c.c_way 1;
    c.c_way
  end
  else begin
    let w = access_way t addr in
    c.c_line <- line;
    c.c_way <- slot_of w;
    c.c_gen <- t.gen;
    w
  end

(* Whether [addr]'s line is the line the cursor touched last and its way
   still holds it.  A cursor that has touched nothing ([c_line = -1])
   matches no address, so it is never resident. *)
let resident t c addr =
  c.c_line = addr lsr t.line_shift
  && (c.c_gen = t.gen || t.tags.(c.c_way) = c.c_line)

(* [n] further accesses to [addr], whose line is {!resident} for the
   cursor: bulk hits while nothing was installed since, else one
   re-probe (a prefetch may have re-installed the line, whose next
   demand access then counts a prefetch hit) and bulk hits. *)
let touch_at t c addr n =
  if c.c_gen = t.gen then touch_run t c.c_way n
  else if n > 0 then begin
    ignore (access_run t addr n : int);
    c.c_gen <- t.gen
  end

(* Install a line without counting it as a demand access (prefetch).
   Returns true if the line was newly installed. *)
let prefetch t addr =
  let line = addr lsr t.line_shift in
  let w = probe t line in
  w < 0
  && begin
       t.clock <- t.clock + 1;
       install t (lnot w) line ~prefetched:true;
       t.st.prefetch_installs <- t.st.prefetch_installs + 1;
       true
     end

let line_bytes t = t.cfg.line_bytes

(* Accumulate this cache's live counters into the global metrics registry
   under [prefix] (e.g. "sim.l1").  Gated: a no-op unless metrics
   collection is enabled, so per-simulation callers pay one flag check at
   the defaults.  A cache is reset for every simulation, so the registry
   counters are running totals across all simulations of the process. *)
let publish_obs ~prefix t =
  if Alt_obs.Metrics.enabled () then begin
    let c name v = Alt_obs.Metrics.add (Alt_obs.Metrics.counter (prefix ^ name)) v in
    c ".accesses" t.st.accesses;
    c ".hits" t.st.hits;
    c ".misses" t.st.misses;
    c ".prefetch_installs" t.st.prefetch_installs;
    c ".prefetch_hits" t.st.prefetch_hits
  end
