(* Transport layer for the tuning service: owns the fds, the frame
   decoding and the one event loop; all policy lives in Serve.

   One [select] loop serves both transports.  It decodes each client's
   frames, answers synchronous requests at once, routes every tune reply
   to the client that submitted its id (refusing a tune whose id another
   client still awaits), and steps the engine.  Input is
   drained ahead of scheduling — every frame already readable is
   admitted before the next engine step — so a run driven from a
   pre-written request file is fully deterministic: admission depends
   only on the file's order, never on read/step interleaving.  A
   malformed frame is answered and ends that client's input; so does a
   failed write (SIGPIPE is ignored while the loop runs).

   The transports differ in three things only: where clients come from
   (pipe: one, over stdin/stdout; socket: any number, accepted on a
   Unix-domain listener), what end of input means (the pipe's admitted
   sessions drain, then the engine closes; a socket client is dropped
   and its ids orphaned — the sessions still complete and journal —
   while the loop serves the others), and where a reply that no
   connected client owns goes (a recovered session's, a repeated id's,
   an orphan's: the pipe writes it out, the socket drops it).

   Input is read as raw bytes straight from the fd into the decoder —
   never through a buffered channel, which would swallow bytes that
   [select] can no longer see.

   [kill_after_rounds] is the crash-injection hook: after that many
   scheduler rounds the process exits immediately with code 42 — no
   drain, no journal cleanup — simulating a crash for recovery tests. *)

module Json = Alt_obs.Json

let src = Logs.Src.create "alt.daemon" ~doc:"ALT tuning service transport"

module Log = (val Logs.src_log src : Logs.LOG)

let crash_exit_code = 42

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let send fd json =
  let frame = Proto.frame_json json in
  write_all fd frame 0 (String.length frame)

(* [None] at end of input; a read error ends the input too. *)
let read_chunk fd =
  let buf = Bytes.create 65536 in
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> None
  | n -> Some (Bytes.sub_string buf 0 n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some ""
  | exception Unix.Unix_error _ -> None

let maybe_crash engine = function
  | Some k when Serve.rounds_stepped engine >= k ->
      (* simulated crash: straight out, no drain, journals stay *)
      Log.warn (fun m -> m "kill-after-rounds reached: exiting %d" crash_exit_code);
      exit crash_exit_code
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The event loop                                                     *)
(* ------------------------------------------------------------------ *)

type client = {
  input : Unix.file_descr;
  output : Unix.file_descr;
  frames : Proto.Frames.t;
  accepted : bool; (* opened by the listener, so the loop closes it *)
}

(* [listener] accepts new clients; [clients] are connected from the
   start; [unowned] takes each reply whose id no connected client owns.
   Returns after a [Shutdown], or once no client, no listener and no
   work is left — then it closes the engine. *)
let serve ?kill_after_rounds ?listener ~clients ~unowned engine =
  let clients = ref clients in
  let owner : (string, client) Hashtbl.t = Hashtbl.create 16 in
  let stop = ref false in
  let connected c = List.memq c !clients in
  (* the end of a client's input: orphan its ids *)
  let drop c =
    if connected c then begin
      clients := List.filter (fun o -> o != c) !clients;
      Hashtbl.filter_map_inplace
        (fun _ o -> if o == c then None else Some o)
        owner;
      if c.accepted then try Unix.close c.input with Unix.Unix_error _ -> ()
    end
  in
  let reply c json =
    try send c.output json
    with Unix.Unix_error (e, _, _) ->
      Log.warn (fun m -> m "client write failed: %s" (Unix.error_message e));
      drop c
  in
  let route (id, json) =
    match Hashtbl.find_opt owner id with
    | Some c ->
        Hashtbl.remove owner id;
        reply c json
    | None -> unowned (id, json)
  in
  let pending_elsewhere c id =
    match Hashtbl.find_opt owner id with Some o -> o != c | None -> false
  in
  let dispatch c payload =
    match Proto.parse_request payload with
    | Error msg -> reply c (Proto.error_response ~id:"" ~reason:msg)
    | Ok (Proto.Tune { id; _ }) when pending_elsewhere c id ->
        (* replies are routed by id, so a second session under an id
           another connection awaits would take that connection's reply *)
        reply c
          (Proto.error_response ~id
             ~reason:
               (Fmt.str "request id %S is pending on another connection" id))
    | Ok (Proto.Shutdown _ as req) ->
        List.iter (fun (_, j) -> reply c j) (Serve.submit engine req);
        List.iter route (Serve.shutdown engine);
        stop := true
    | Ok req -> (
        match (req, Serve.submit engine req) with
        | Proto.Tune { id; _ }, [] ->
            Hashtbl.replace owner id c (* answered on completion *)
        | _, replies -> List.iter (fun (_, j) -> reply c j) replies)
  in
  (* dispatch every complete frame [c] has buffered *)
  let rec decode c =
    if (not !stop) && connected c then
      match Proto.Frames.next c.frames with
      | Ok None -> ()
      | Ok (Some payload) ->
          dispatch c payload;
          decode c
      | Error msg ->
          (* strict framing: a malformed stream is fatal *)
          reply c (Proto.error_response ~id:"" ~reason:("bad frame: " ^ msg));
          drop c
  in
  let accept l =
    match Unix.accept l with
    | fd, _ ->
        let frames = Proto.Frames.create () in
        clients :=
          !clients @ [ { input = fd; output = fd; frames; accepted = true } ]
    | exception Unix.Unix_error (e, _, _) ->
        Log.warn (fun m -> m "accept failed: %s" (Unix.error_message e))
  in
  (* drain ahead of scheduling: admit every readable frame, then look
     again, until nothing is readable *)
  let rec admit ~block =
    let fds = Option.to_list listener @ List.map (fun c -> c.input) !clients in
    if (not !stop) && fds <> [] then
      match Unix.select fds [] [] (if block then -1.0 else 0.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | ready, _, _ ->
          List.iter
            (fun c ->
              if (not !stop) && connected c && List.mem c.input ready then
                match read_chunk c.input with
                | None -> drop c
                | Some chunk ->
                    Proto.Frames.feed c.frames chunk;
                    decode c)
            !clients;
          (match listener with
          | Some l when (not !stop) && List.mem l ready -> accept l
          | _ -> ());
          admit ~block:false
  in
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      List.iter drop !clients;
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      while
        (not !stop)
        && (listener <> None || !clients <> [] || Serve.has_work engine)
      do
        admit ~block:(not (Serve.has_work engine));
        if (not !stop) && Serve.has_work engine then begin
          List.iter route (Serve.step engine);
          maybe_crash engine kill_after_rounds
        end
      done;
      if not !stop then ignore (Serve.shutdown engine : (string * Json.t) list))

(* ------------------------------------------------------------------ *)
(* Transports                                                         *)
(* ------------------------------------------------------------------ *)

let run_pipe ?kill_after_rounds ?(input = Unix.stdin) ?(output = Unix.stdout)
    engine =
  let frames = Proto.Frames.create () in
  serve ?kill_after_rounds
    ~clients:[ { input; output; frames; accepted = false } ]
    ~unowned:(fun (_, json) ->
      try send output json with Unix.Unix_error _ -> ())
    engine

let run_socket ?kill_after_rounds ~path engine =
  if Sys.file_exists path then Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 16;
      Log.info (fun m -> m "listening on %s" path);
      serve ?kill_after_rounds ~listener ~clients:[]
        ~unowned:(fun (id, _) ->
          Log.debug (fun m -> m "dropping the reply to orphan id %S" id))
        engine)

(* ------------------------------------------------------------------ *)
(* Client                                                             *)
(* ------------------------------------------------------------------ *)

(* One-shot request over the socket: connect, send, await the reply to
   our id (responses to other clients' ids cannot arrive on our
   connection, so the first frame is ours). *)
let request ~path (req : Proto.request) : (Json.t, string) result =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Fmt.str "connect %s: %s" path (Unix.error_message e))
      | () -> (
          send fd (Proto.request_to_json req);
          let frames = Proto.Frames.create () in
          let rec await () =
            match Proto.Frames.next frames with
            | Error msg -> Error msg
            | Ok (Some payload) -> Json.parse payload
            | Ok None -> (
                match read_chunk fd with
                | None -> Error "connection closed before a reply arrived"
                | Some chunk ->
                    Proto.Frames.feed frames chunk;
                    await ())
          in
          await ()))
