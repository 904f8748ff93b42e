(** HTTP/1.0 request methods (RFC 1945, which the paper targets). *)

type t = Get | Head | Post

val to_string : t -> string

(** [of_string s] is case-sensitive per RFC 1945 (["GET"], not ["get"]). *)
val of_string : string -> (t, string) result

val equal : t -> t -> bool
