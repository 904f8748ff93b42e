(** Minimal JSON emitter shared by the metrics dump ([--metrics-out]),
    the bench harness's [BENCH_perf.json] and the Chrome trace export —
    plus a parser for the tools that read those dumps back
    ([bin/metrics_diff], [bin/perf_gate], [swala_sim report]). The
    simulator's run paths only emit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [float_opt v] is [Float x] for [Some x] and [Null] otherwise — the
    JSON rendering of a statistic over an empty collection. *)
val float_opt : float option -> t

(** [escape_into buf s] appends [s] to [buf] as a quoted JSON string. *)
val escape_into : Buffer.t -> string -> unit

(** [to_string v] renders compactly (no whitespace). Non-finite floats
    become [null]; finite floats round-trip. *)
val to_string : t -> string

(** [write oc v] is [to_string] plus a trailing newline to [oc]. *)
val write : out_channel -> t -> unit

(** [of_string s] parses one JSON value (surrounding whitespace allowed,
    trailing content is an error). Numbers without fraction or exponent
    parse as [Int], everything else numeric as [Float], so emit/parse
    round-trips the emitter's constructor choices. *)
val of_string : string -> (t, string) result

(** [of_file path] parses the one JSON value in file [path]. A file that
    cannot be opened or read is an [Error] like a malformed one, and
    every error message starts with [path]. *)
val of_file : string -> (t, string) result

(** [member k v] is the value of field [k] when [v] is an object having
    it. *)
val member : string -> t -> t option

(** [keys v] is an object's field names in order ([[]] for non-objects). *)
val keys : t -> string list

(** [to_float_opt v] widens [Int]/[Float] to [float]. *)
val to_float_opt : t -> float option
