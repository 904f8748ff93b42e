(** HTTP status codes used by the server models. *)

type t =
  | Ok
  | Bad_request
  | Forbidden
  | Not_found
  | Internal_server_error
  | Not_implemented
  | Service_unavailable

val code : t -> int
val reason : t -> string

val is_success : t -> bool
