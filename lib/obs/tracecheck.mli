(** Trace-file validation: parse a JSONL trace produced by {!Trace} back
    into records and check the sink's invariants.  Shared by the CLI
    [obs-validate] subcommand and the round-trip tests. *)

type record = {
  seq : int;
  ts : int;
  ph : string;  (** ["B"], ["E"] or ["I"] *)
  name : string;
  attrs : (string * Json.t) list;
}

val parse_line : string -> (record, string) result
val parse_file : string -> (record list, string) result

val validate : record list -> (unit, string) result
(** Checks that [seq] runs 0,1,2,… in file order, timestamps never go
    backwards, and every ["E"] closes the innermost open ["B"] of the
    same name with nothing left open at the end. *)

val normalize : record list -> string list
(** Timestamp- and seq-free projection (one canonical JSON string per
    record); attributes carrying wall-clock readings ([gbdt_fit_ms])
    are dropped too.  Identical runs must agree on it exactly, for
    every [--jobs] value. *)
