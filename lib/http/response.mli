(** HTTP/1.0 responses. *)

type t = {
  status : Status.t;
  version : string;
  headers : Headers.t;
  body : Body.t;
}

(** [make ?headers ?body status]; the body defaults to {!Body.empty}. *)
val make : ?headers:Headers.t -> ?body:Body.t -> Status.t -> t

(** [ok body] is a [200] with [Content-Type: text/html]. *)
val ok : Body.t -> t

(** [error status message] wraps [message] in a minimal HTML body. The
    message may echo request text, so the five HTML-special characters
    (ampersand, angle brackets, both quotes) are escaped as entities. *)
val error : Status.t -> string -> t

(** [to_wire t] serialises, rendering a deferred body. *)
val to_wire : t -> string

(** [wire_size t] is [String.length (to_wire t)], computed from
    {!Body.length} without rendering the body. *)
val wire_size : t -> int

