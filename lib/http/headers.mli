(** HTTP header fields. Field names are case-insensitive (RFC 1945 §4.2);
    insertion order is preserved for serialisation. *)

type t

val empty : t

(** [add t name value] appends a field (duplicates allowed, as in HTTP). *)
val add : t -> string -> string -> t

(** [get t name] is the first value of [name], case-insensitively. *)
val get : t -> string -> string option

(** [get_all t name] is every value of [name], in order. *)
val get_all : t -> string -> string list

(** [replace t name value] removes existing [name] fields and appends one. *)
val replace : t -> string -> string -> t

val remove : t -> string -> t
val mem : t -> string -> bool
val to_list : t -> (string * string) list
val of_list : (string * string) list -> t
val length : t -> int

(** [content_length t] parses the [Content-Length] field if present and
    well-formed. *)
val content_length : t -> int option

