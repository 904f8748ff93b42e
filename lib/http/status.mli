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

(** [of_code n] recognises the codes above. *)
val of_code : int -> (t, string) result

val is_success : t -> bool
