(* Trace-file validation: parse a JSONL trace back into records and check
   the invariants the sink promises (DESIGN.md §11).  Shared by the CLI
   [obs-validate] subcommand and the round-trip tests, so the schema is
   pinned in exactly one place. *)

type record = {
  seq : int;
  ts : int;
  ph : string;
  name : string;
  attrs : (string * Json.t) list;
}

let record_of_json (j : Json.t) : (record, string) result =
  let ( let* ) = Result.bind in
  let field k conv what =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed %S field" what)
  in
  let* seq = field "seq" Json.to_int_opt "seq" in
  let* ts = field "ts" Json.to_int_opt "ts" in
  let* ph = field "ph" Json.to_string_opt "ph" in
  let* name = field "name" Json.to_string_opt "name" in
  let* attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj fields) -> Ok fields
    | Some _ -> Error "\"attrs\" is not an object"
    | None -> Error "missing \"attrs\" field"
  in
  if ph <> "B" && ph <> "E" && ph <> "I" then
    Error (Printf.sprintf "bad phase %S (want B, E or I)" ph)
  else Ok { seq; ts; ph; name; attrs }

let parse_line line =
  match Json.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> record_of_json j

let parse_file path : (record list, string) result =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line -> (
            match parse_line line with
            | Ok r -> go (lineno + 1) (r :: acc)
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
      in
      go 1 [])

(* Structural invariants of a well-formed trace:
   - seq numbers are exactly 0,1,2,... in file order;
   - timestamps are non-decreasing in file order (the sink clamps);
   - every "E" closes the innermost open "B" of the same name, and no
     span is left open at the end of the file. *)
let validate (records : record list) : (unit, string) result =
  let rec go i expect_seq last_ts open_spans = function
    | [] ->
        if open_spans = [] then Ok ()
        else
          Error
            (Printf.sprintf "unclosed span(s) at end of trace: %s"
               (String.concat ", " (List.rev open_spans)))
    | r :: rest ->
        if r.seq <> expect_seq then
          Error
            (Printf.sprintf "record %d: seq %d, expected %d" i r.seq expect_seq)
        else if r.ts < last_ts then
          Error
            (Printf.sprintf "record %d: timestamp %d went backwards (prev %d)"
               i r.ts last_ts)
        else
          let continue open_spans =
            go (i + 1) (expect_seq + 1) r.ts open_spans rest
          in
          (match r.ph with
          | "B" -> continue (r.name :: open_spans)
          | "E" -> (
              match open_spans with
              | top :: tl when top = r.name -> continue tl
              | top :: _ ->
                  Error
                    (Printf.sprintf
                       "record %d: span end %S does not match open span %S" i
                       r.name top)
              | [] ->
                  Error
                    (Printf.sprintf
                       "record %d: span end %S with no open span" i r.name)
              )
          | _ -> continue open_spans)
  in
  go 0 0 0 [] records

(* Timestamp- and seq-free projection of a record stream.  Two runs of the
   same deterministic computation must agree on this projection exactly —
   across repeats and across --jobs values.  Beyond "seq"/"ts" this also
   means dropping the attributes that carry wall-clock readings (the
   per-round GBDT fit time); everything else in a record is a pure
   function of the traced computation. *)
let volatile_attrs = [ "gbdt_fit_ms" ]

let normalize (records : record list) : string list =
  List.map
    (fun r ->
      let attrs =
        List.filter (fun (k, _) -> not (List.mem k volatile_attrs)) r.attrs
      in
      Json.to_string
        (Json.Obj
           [
             ("ph", Json.String r.ph);
             ("name", Json.String r.name);
             ("attrs", Json.Obj attrs);
           ]))
    records
