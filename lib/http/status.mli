(** HTTP status codes used by the server models. *)

type t = Ok | Not_found | Internal_server_error | Service_unavailable

val code : t -> int
val reason : t -> string
