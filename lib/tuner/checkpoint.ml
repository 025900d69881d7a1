(* On-disk tuning checkpoints (see the .mli for the resume model).

   A checkpoint file (format 2) is a fixed 32-byte header and a payload:
   the prefix "ALTCKPT", a version byte, the payload length as 8 bytes
   big-endian, the payload's MD5 digest (16 bytes), then the payload,
   the marshalled record.  [load] checks the prefix, the version, the
   length and the digest before Marshal reads a byte, so a flipped bit
   or a truncated tail fails as the documented [Failure] and never
   reaches the unmarshaller.  Writes go through a temporary file and a
   rename so a crash mid-write (the exact scenario checkpoints exist
   for) can never leave a truncated checkpoint behind — the previous
   complete one survives. *)

module Profiler = Alt_machine.Profiler

let prefix = "ALTCKPT"
let version = 2
let header_len = String.length prefix + 1 + 8 + 16

type t = {
  fingerprint : string;
  rounds : int;
  spent : int;
  best_latency : float;
  rng_digest : string;
  cache : (string * Profiler.result) list;
  quarantine : (string * string) list;
}

let save ~path (t : t) =
  Alt_obs.Trace.with_span "checkpoint.save" @@ fun () ->
  let payload = Marshal.to_string t [] in
  let header = Bytes.create header_len in
  let p = String.length prefix in
  Bytes.blit_string prefix 0 header 0 p;
  Bytes.set_uint8 header p version;
  Bytes.set_int64_be header (p + 1) (Int64.of_int (String.length payload));
  Bytes.blit_string (Digest.string payload) 0 header (p + 9) 16;
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_bytes oc header;
     output_string oc payload;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load ~path : t =
  let fail fmt = Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let size = in_channel_length ic and p = String.length prefix in
      if size <= p then fail "not an ALT checkpoint (file too short)";
      let header = really_input_string ic (min size header_len) in
      if String.sub header 0 p <> prefix then fail "not an ALT checkpoint";
      let v = Char.code header.[p] in
      if v <> version then
        fail "checkpoint format version %d, expected %d" v version;
      if size < header_len then fail "truncated checkpoint (short header)";
      (* compared as 64-bit values: converting the stored length to a
         63-bit int would drop its top bit *)
      if
        not
          (Int64.equal
             (String.get_int64_be header (p + 1))
             (Int64.of_int (size - header_len)))
      then fail "truncated or corrupt checkpoint (payload length)";
      let payload = really_input_string ic (size - header_len) in
      if Digest.string payload <> String.sub header (p + 9) 16 then
        fail "corrupt checkpoint (payload digest)";
      (* the digest matched, so only a file built to pass it can reach a
         Marshal error; it still surfaces as the documented Failure *)
      try (Marshal.from_string payload 0 : t)
      with Failure _ | Invalid_argument _ ->
        fail "corrupt checkpoint (bad record)")

let load_opt ~path = if Sys.file_exists path then Some (load ~path) else None
