(** Shared wire-format helpers for request and response parsing. *)

(** [split_head s] splits the message head into lines (tolerating CRLF and
    bare LF), stopping at the first empty line; returns the lines and the
    byte offset of the body. *)
val split_head : string -> string list * int

(** [parse_header_line line] splits ["Name: value"]. *)
val parse_header_line : string -> (string * string, string) result

(** [decimal_length n] is [String.length (string_of_int n)] for
    [n >= 0], without building the string. *)
val decimal_length : int -> int

(** [headers_size hs] is the byte count of [hs] rendered as
    ["Name: value\r\n"] lines. *)
val headers_size : (string * string) list -> int
