(* Workload specifications: the wire-level description of what a client
   wants tuned, plus the two digests the daemon keys everything by.

   A [tune_spec] captures every knob that shapes a tuning trajectory —
   the operator, the machine, the tuner system/seed/budget, the input
   data seed and the fault configuration.  Its canonical JSON (fixed
   field order, shortest-round-trip floats) is the session identity:
   two requests with the same canonical spec are the same session and
   share one tuning run.

   The [context_key] is coarser: it digests only what determines the
   *result of one measurement* (operator, machine, simulation budget,
   input data, fault injector, retries, watchdog) and deliberately
   excludes the tuner's seed/system/budget.  Sessions agreeing on the
   context key may share measurement results and quarantine decisions —
   a measurement is a pure function of (context, canonical program), so
   importing another session's result is indistinguishable from a local
   cache hit. *)

module Opdef = Alt_ir.Opdef
module Ops = Alt_graph.Ops
module Machine = Alt_machine.Machine
module Fault = Alt_faults.Fault
module Measure = Alt_tuner.Measure
module Tuner = Alt_tuner.Tuner
module Json = Alt_obs.Json

type op_spec = {
  kind : string; (* one of [op_kinds] *)
  batch : int;
  channels : int;
  out_channels : int;
  spatial : int;
  kernel : int;
  stride : int;
}

let default_op =
  {
    kind = "c2d";
    batch = 1;
    channels = 16;
    out_channels = 32;
    spatial = 14;
    kernel = 3;
    stride = 1;
  }

(* Every operator kind, in help order, with how a spec builds it: the
   one table behind [op_kinds] (the CLI's --op values) and [op_of_spec],
   so the two cannot drift. *)
let constructors (s : op_spec) : (string * (unit -> Opdef.t)) list =
  let n = s.batch and i = s.channels and o = s.out_channels in
  let hw = s.spatial and k = s.kernel and stride = s.stride in
  [
    ( "c2d",
      fun () ->
        Ops.c2d ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~h:hw ~w:hw
          ~kh:k ~kw:k ~stride () );
    ( "grp",
      fun () ->
        Ops.grp ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~h:hw ~w:hw
          ~kh:k ~kw:k ~groups:2 ~stride () );
    ( "dep",
      fun () ->
        Ops.dep ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~c:i ~h:hw ~w:hw
          ~kh:k ~kw:k ~stride () );
    ( "dil",
      fun () ->
        Ops.dil ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~h:hw ~w:hw
          ~kh:k ~kw:k ~stride () );
    ( "c1d",
      fun () ->
        Ops.c1d ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~w:(hw * hw)
          ~kw:k ~stride () );
    ( "c3d",
      fun () ->
        Ops.c3d ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~d:4 ~h:hw
          ~w:hw ~kd:k ~kh:k ~kw:k ~stride () );
    ( "gmm",
      fun () -> Ops.gmm ~name:"op" ~a:"A" ~b:"B" ~out:"C" ~m:hw ~k:i ~n:o () );
    ( "t2d",
      fun () ->
        Ops.t2d ~name:"op" ~inp:"X" ~ker:"K" ~out:"Y" ~n ~i ~o ~h:hw ~w:hw
          ~kh:k ~kw:k () );
  ]

let op_kinds = List.map fst (constructors default_op)

(* The CLI's operator constructor, shared by tune-op/show-op/serve. *)
let op_of_spec (s : op_spec) : Opdef.t =
  match List.assoc_opt s.kind (constructors s) with
  | Some build -> build ()
  | None -> Fmt.failwith "unknown operator kind %S" s.kind

let op_spec_to_json (s : op_spec) : Json.t =
  Json.Obj
    [
      ("kind", Json.String s.kind);
      ("batch", Json.Int s.batch);
      ("channels", Json.Int s.channels);
      ("out_channels", Json.Int s.out_channels);
      ("spatial", Json.Int s.spatial);
      ("kernel", Json.Int s.kernel);
      ("stride", Json.Int s.stride);
    ]

let int_field j name dflt =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> v
  | None -> dflt

let float_field j name dflt =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> dflt

let string_field j name dflt =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some v -> v
  | None -> dflt

let op_spec_of_json (j : Json.t) : (op_spec, string) result =
  match j with
  | Json.Obj _ ->
      let s =
        {
          kind = string_field j "kind" default_op.kind;
          batch = int_field j "batch" default_op.batch;
          channels = int_field j "channels" default_op.channels;
          out_channels = int_field j "out_channels" default_op.out_channels;
          spatial = int_field j "spatial" default_op.spatial;
          kernel = int_field j "kernel" default_op.kernel;
          stride = int_field j "stride" default_op.stride;
        }
      in
      (* validate eagerly so a bad spec is a structured rejection, not a
         mid-session crash *)
      (match op_of_spec s with
      | (_ : Opdef.t) -> Ok s
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error msg)
  | _ -> Error "op spec must be a JSON object"

type tune_spec = {
  op : op_spec;
  machine : string;
  system : string; (* vendor/autotvm/flextensor/ansor/alt/alt-ol *)
  budget : int;
  seed : int; (* tuner seed *)
  max_points : int; (* per-measurement simulation budget *)
  data_seed : int; (* input-data seed *)
  fault_rate : float;
  fault_seed : int;
  retries : int;
  watchdog_points : int option;
}

let default_tune_spec =
  {
    op = default_op;
    machine = "intel-cpu";
    system = "alt";
    budget = 64;
    seed = 0;
    max_points = 40_000;
    data_seed = 11;
    fault_rate = 0.0;
    fault_seed = 0;
    retries = 2;
    watchdog_points = None;
  }

let machine_of_name name =
  List.find_opt (fun m -> m.Machine.name = name) Machine.all

let system_of_name name = List.assoc_opt name Tuner.systems

(* Canonical JSON: fixed field order, so rendering is a canonical
   serialization (the codec renders floats shortest-round-trip). *)
let tune_spec_to_json (s : tune_spec) : Json.t =
  Json.Obj
    [
      ("op", op_spec_to_json s.op);
      ("machine", Json.String s.machine);
      ("system", Json.String s.system);
      ("budget", Json.Int s.budget);
      ("seed", Json.Int s.seed);
      ("max_points", Json.Int s.max_points);
      ("data_seed", Json.Int s.data_seed);
      ("fault_rate", Json.Float s.fault_rate);
      ("fault_seed", Json.Int s.fault_seed);
      ("retries", Json.Int s.retries);
      ( "watchdog_points",
        match s.watchdog_points with
        | Some p -> Json.Int p
        | None -> Json.Null );
    ]

let tune_spec_of_json (j : Json.t) : (tune_spec, string) result =
  match j with
  | Json.Obj _ -> (
      let op_json =
        match Json.member "op" j with
        | Some o -> o
        | None -> Json.Obj []
      in
      match op_spec_of_json op_json with
      | Error e -> Error e
      | Ok op ->
          let d = default_tune_spec in
          let s =
            {
              op;
              machine = string_field j "machine" d.machine;
              system = string_field j "system" d.system;
              budget = int_field j "budget" d.budget;
              seed = int_field j "seed" d.seed;
              max_points = int_field j "max_points" d.max_points;
              data_seed = int_field j "data_seed" d.data_seed;
              fault_rate = float_field j "fault_rate" d.fault_rate;
              fault_seed = int_field j "fault_seed" d.fault_seed;
              retries = int_field j "retries" d.retries;
              watchdog_points =
                Option.bind (Json.member "watchdog_points" j) Json.to_int_opt;
            }
          in
          if machine_of_name s.machine = None then
            Error (Fmt.str "unknown machine %S" s.machine)
          else if system_of_name s.system = None then
            Error (Fmt.str "unknown system %S" s.system)
          else if s.budget < 1 then Error "budget must be >= 1"
          else if s.retries < 0 then Error "retries must be >= 0"
          else if s.fault_rate < 0.0 || s.fault_rate > 1.0 then
            Error "fault_rate must be in [0,1]"
          else Ok s)
  | _ -> Error "tune spec must be a JSON object"

(* Session identity: the canonical spec digest.  Two requests with equal
   canonical specs attach to one session. *)
let session_key (s : tune_spec) : string =
  Digest.to_hex (Digest.string ("alt-session|" ^ Json.to_string (tune_spec_to_json s)))

(* Measurement-context identity: what one measurement's result depends
   on.  Excludes the tuner seed/system/budget — sessions differing only
   there measure identical (context, program) points and may share. *)
let context_key (s : tune_spec) : string =
  let j =
    Json.Obj
      [
        ("op", op_spec_to_json s.op);
        ("machine", Json.String s.machine);
        ("backend", Json.String "sim");
        ("max_points", Json.Int s.max_points);
        ("data_seed", Json.Int s.data_seed);
        ("fault_rate", Json.Float s.fault_rate);
        ("fault_seed", Json.Int s.fault_seed);
        ("retries", Json.Int s.retries);
        ( "watchdog_points",
          match s.watchdog_points with
          | Some p -> Json.Int p
          | None -> Json.Null );
      ]
  in
  Digest.to_hex (Digest.string ("alt-context|" ^ Json.to_string j))

(* Build the measurement task a spec describes.  [shared] plugs the
   session into the daemon's cross-session store; a standalone (CLI)
   run of the same spec builds the identical task minus sharing, which
   is trajectory-neutral by the shared-store contract. *)
let task_of_spec ?shared (s : tune_spec) : Measure.task =
  let machine =
    match machine_of_name s.machine with
    | Some m -> m
    | None -> invalid_arg (Fmt.str "Workload: unknown machine %S" s.machine)
  in
  let faults =
    if s.fault_rate > 0.0 then
      Fault.create ~seed:s.fault_seed ~rate:s.fault_rate ()
    else Fault.none
  in
  Measure.make_task ~machine ~max_points:s.max_points ~seed:s.data_seed
    ~faults ~retries:s.retries ?watchdog_points:s.watchdog_points ?shared
    (op_of_spec s.op)

let system_of_spec (s : tune_spec) : Tuner.system =
  match system_of_name s.system with
  | Some sys -> sys
  | None -> invalid_arg (Fmt.str "Workload: unknown system %S" s.system)
