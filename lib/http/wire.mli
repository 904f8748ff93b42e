(** Shared wire-format helpers for parsing and printing request and
    response heads. *)

(** [split_head s] splits the message head into lines (tolerating CRLF and
    bare LF), stopping at the first empty line; returns the lines and the
    byte offset of the body. *)
val split_head : string -> string list * int

(** [parse_fields s header_lines ~body_off] parses the ["Name: value"]
    lines that {!split_head} returned for message [s], then cuts the body
    at [body_off]: [Content-Length] bytes when the header is present and
    well-formed (never past the end of [s]), otherwise the rest of [s]. *)
val parse_fields :
  string -> string list -> body_off:int -> (Headers.t * string, string) result

(** [add_fields buf hs] renders [hs] as ["Name: value\r\n"] lines and the
    empty line that ends the message head. *)
val add_fields : Buffer.t -> Headers.t -> unit

(** [decimal_length n] is [String.length (string_of_int n)] for
    [n >= 0], without building the string. *)
val decimal_length : int -> int

(** [headers_size hs] is the byte count of [hs] rendered as
    ["Name: value\r\n"] lines. *)
val headers_size : (string * string) list -> int
