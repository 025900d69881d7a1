(** Transport layer for the tuning service: frame decoding, response
    routing and the one event loop that both transports run.  All policy
    (admission, scheduling, deadlines, journaling) lives in {!Serve}. *)

module Json = Alt_obs.Json

val run_pipe :
  ?kill_after_rounds:int ->
  ?input:Unix.file_descr ->
  ?output:Unix.file_descr ->
  Serve.t ->
  unit
(** Serve one client over an fd pair (default stdin/stdout).  Available
    input is drained ahead of scheduling, so a run driven from a
    pre-written request file is fully deterministic.  EOF starts a
    graceful drain: admitted sessions finish, then the loop returns
    (after closing the engine).  Replies no request of this client owns
    — a recovered session's, a repeated id's — are written to [output]
    too.  A [Shutdown] request aborts in-flight sessions at their last
    checkpoint and returns immediately.
    [kill_after_rounds] exits the process with code 42 after that many
    engine rounds — no drain, journals kept — so harnesses can tell a
    simulated crash from a failure. *)

val run_socket : ?kill_after_rounds:int -> path:string -> Serve.t -> unit
(** Serve any number of concurrent clients over a Unix-domain socket at
    [path] (an existing socket file is replaced).  Tune responses are
    routed to the connection that submitted the id, so a tune whose id
    another connection still awaits is answered at once with an error
    naming the id and never reaches the engine; a disconnected
    client's sessions still run and journal, but their responses are
    dropped, as are those of recovered sessions.  Returns after a
    [Shutdown] request, with every connection closed and the socket file
    removed. *)

val request : path:string -> Proto.request -> (Json.t, string) result
(** One-shot client: connect to the daemon at [path], send [req], and
    block until its reply arrives. *)
