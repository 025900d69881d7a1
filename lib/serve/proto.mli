(** The serve wire protocol: length-prefixed JSON frames
    ([<len>\n<payload>\n]) and the request codec.  Framing is strict —
    a bad length prefix, an out-of-bounds length or a missing trailing
    newline is a fatal stream error (length-prefixed streams cannot
    resynchronize), and frames are capped at {!max_frame} bytes so a
    corrupt peer cannot wedge the daemon. *)

module Json = Alt_obs.Json

val max_frame : int
(** Hard cap on one payload's byte length (1 MiB). *)

val frame : string -> string
(** Wrap a payload into one wire frame.  Raises [Invalid_argument] above
    {!max_frame}. *)

val frame_json : Json.t -> string

(** Incremental decoder: feed raw bytes as they arrive, pull complete
    payloads. *)
module Frames : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit
  val pending : t -> int

  val next : t -> (string option, string) result
  (** [Ok (Some payload)]: one frame consumed; [Ok None]: need more
      bytes; [Error msg]: the stream is corrupt and the connection must
      be dropped. *)
end

type request =
  | Tune of {
      id : string;
      spec : Workload.tune_spec;
      deadline_rounds : int option;
          (** max scheduler rounds granted in this daemon run; on expiry
              the session is parked resumable (journal kept) and the
              request answered with status ["deadline"] *)
    }
  | Compile of {
      id : string;
      op : Workload.op_spec;
      machine : string;
      preset : string;  (** default, channels-last, blocked, alt *)
    }
  | Stats of { id : string }
  | Shutdown of { id : string }

val request_id : request -> string
val request_to_json : request -> Json.t
val parse_request : string -> (request, string) result

val error_response : id:string -> reason:string -> Json.t
