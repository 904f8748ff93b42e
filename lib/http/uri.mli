(** Request-URI handling: path/query split, percent-decoding, query-string
    parsing, and canonicalisation. Canonical form (sorted, decoded query
    parameters) is what the cache uses as part of its key, so two requests
    that differ only in parameter order hit the same entry. *)

type t = {
  path : string;  (** decoded path, always starting with ['/'] *)
  query : (string * string) list;  (** decoded pairs, original order *)
}

(** [parse s] splits ["/path?a=1&b=2"]; [Error] on malformed
    percent-escapes or an empty/relative path. *)
val parse : string -> (t, string) result

(** [to_string t] re-encodes (path segments and query values are
    percent-encoded as needed). *)
val to_string : t -> string

(** [encoded_length t] is [String.length (to_string t)], summed without
    building the string. *)
val encoded_length : t -> int

(** [absolute_path p] holds when [p] starts with ['/'], as every
    request-URI's path must; {!parse} rejects any other. *)
val absolute_path : string -> bool

(** [canonical t] sorts query parameters by key (then value), producing the
    cache-key form. *)
val canonical : t -> t

(** [percent_decode s] decodes [%XX] escapes and ['+'] as space. *)
val percent_decode : string -> (string, string) result

(** [percent_encode s] escapes everything outside the RFC 1738 "safe"
    set. *)
val percent_encode : string -> string

val query_get : t -> string -> string option
val equal : t -> t -> bool
