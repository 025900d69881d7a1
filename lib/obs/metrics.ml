(* Global metrics registry (DESIGN.md §11).

   Instruments are registered once by name and held by the call sites as
   plain handles, so the hot-path cost of an update is one atomic-flag
   check (collection is off by default) plus, when enabled, one atomic or
   plain field update — no allocation, no table lookup.

   Concurrency contract: counters are [Atomic]-backed and safe to bump
   from pool worker domains (the profiler does).  Gauges and histograms
   are plain mutable records and must only be updated from the calling
   (tuning) domain — which is where every current gauge/histogram site
   lives, since budget accounting and round bookkeeping are serialized
   there by design (DESIGN.md §7).

   Determinism: counter totals are order-independent sums and every
   gauge/histogram site is serialized, so a metrics snapshot of a tuning
   run is identical for every --jobs value.  Nothing in the tuner ever
   reads the registry, so enabling collection cannot perturb a
   trajectory (the trajectory-neutrality half of the contract; the
   differential suite in test/test_obs.ml enforces it). *)

type counter = { cname : string; cell : int Atomic.t }
type gauge = { gname : string; mutable gval : float; mutable gset : bool }

type histogram = {
  hname : string;
  bounds : float array; (* upper bounds of the finite buckets, ascending *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  mutable hcount : int;
  mutable hsum : float;
}

type value =
  | Counter of int
  | Gauge of float option
  | Histogram of { buckets : (float * int) list; overflow : int; count : int; sum : float }

type metric = { name : string; value : value }

type instrument = Icounter of counter | Igauge of gauge | Ihistogram of histogram

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let on = Atomic.make false
let out_path : string option ref = ref None

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register name make check =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some i -> check i
      | None ->
          let i = make () in
          Hashtbl.replace registry name i;
          i)

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Metrics: %s is already registered with another kind" name)

let counter name : counter =
  match
    register name
      (fun () -> Icounter { cname = name; cell = Atomic.make 0 })
      (function Icounter _ as i -> i | _ -> kind_clash name)
  with
  | Icounter c -> c
  | _ -> assert false

let gauge name : gauge =
  match
    register name
      (fun () -> Igauge { gname = name; gval = 0.0; gset = false })
      (function Igauge _ as i -> i | _ -> kind_clash name)
  with
  | Igauge g -> g
  | _ -> assert false

let histogram name ~buckets : histogram =
  let bounds = Array.of_list buckets in
  let sorted = Array.copy bounds in
  Array.sort Float.compare sorted;
  if bounds <> sorted || Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: buckets must be non-empty and ascending";
  match
    register name
      (fun () ->
        Ihistogram
          {
            hname = name;
            bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            hcount = 0;
            hsum = 0.0;
          })
      (function Ihistogram _ as i -> i | _ -> kind_clash name)
  with
  | Ihistogram h -> h
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Updates                                                            *)
(* ------------------------------------------------------------------ *)

(* Gated hot-path updates: no-ops while collection is disabled. *)

let add c by = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell by : int)
let incr c = add c 1

let set g v =
  if Atomic.get on then begin
    g.gval <- v;
    g.gset <- true
  end

let observe h v =
  if Atomic.get on then begin
    let n = Array.length h.bounds in
    let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
    let i = bucket 0 in
    h.counts.(i) <- h.counts.(i) + 1;
    h.hcount <- h.hcount + 1;
    h.hsum <- h.hsum +. v
  end

(* Unconditional updates, for end-of-run publication of counters that are
   tracked elsewhere (the per-task stats structs of Measure): the CLI
   prints its human-readable summary from the registry whether or not
   collection was enabled, which is what keeps the default output
   byte-identical to the pre-registry implementation. *)

let add_raw c by = ignore (Atomic.fetch_and_add c.cell by : int)

let set_raw g v =
  g.gval <- v;
  g.gset <- true

(* ------------------------------------------------------------------ *)
(* Reads, snapshots, rendering                                        *)
(* ------------------------------------------------------------------ *)

let counter_value c = Atomic.get c.cell
let gauge_value g = if g.gset then Some g.gval else None

let value_of = function
  | Icounter c -> Counter (Atomic.get c.cell)
  | Igauge g -> Gauge (gauge_value g)
  | Ihistogram h ->
      Histogram
        {
          buckets =
            Array.to_list
              (Array.mapi (fun i b -> (b, h.counts.(i))) h.bounds);
          overflow = h.counts.(Array.length h.bounds);
          count = h.hcount;
          sum = h.hsum;
        }

let snapshot () : metric list =
  with_lock (fun () ->
      Hashtbl.fold
        (fun name i acc -> { name; value = value_of i } :: acc)
        registry [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let find name =
  with_lock (fun () -> Hashtbl.find_opt registry name)
  |> Option.map (fun i -> { name; value = value_of i })

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Icounter c -> Atomic.set c.cell 0
          | Igauge g ->
              g.gval <- 0.0;
              g.gset <- false
          | Ihistogram h ->
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.hcount <- 0;
              h.hsum <- 0.0)
        registry)

let metric_to_json (m : metric) : Json.t =
  let kind, fields =
    match m.value with
    | Counter n -> ("counter", [ ("value", Json.Int n) ])
    | Gauge None -> ("gauge", [ ("value", Json.Null) ])
    | Gauge (Some v) -> ("gauge", [ ("value", Json.Float v) ])
    | Histogram { buckets; overflow; count; sum } ->
        ( "histogram",
          [
            ( "buckets",
              Json.List
                (List.map
                   (fun (le, n) ->
                     Json.Obj [ ("le", Json.Float le); ("count", Json.Int n) ])
                   buckets) );
            ("overflow", Json.Int overflow);
            ("count", Json.Int count);
            ("sum", Json.Float sum);
          ] )
  in
  Json.Obj (("name", Json.String m.name) :: ("kind", Json.String kind) :: fields)

let to_json () : Json.t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("metrics", Json.List (List.map metric_to_json (snapshot ())));
    ]

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ()));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

let at_exit_installed = ref false

let set_output path =
  enable ();
  out_path := Some path;
  if not !at_exit_installed then begin
    at_exit_installed := true;
    Stdlib.at_exit (fun () ->
        match !out_path with
        | Some p -> ( try write_file p with Sys_error _ -> ())
        | None -> ())
  end

let configure_from_env () =
  match Sys.getenv_opt "ALT_METRICS" with
  | Some path when path <> "" -> set_output path
  | _ -> ()
