(** Message bodies, held as bytes or as a description.

    The server model charges the network, disk and CPU by a body's
    length, never by its contents, so a body may be a deferred rendering
    of known length: {!length} answers without producing a byte, and
    only {!to_string} — serialisation, a test, a reader — renders it. A
    deferred body keeps only what its rendering needs (for a CGI result,
    the script and the key), so a cache full of results costs the same
    memory whatever their size. *)

type t

(** The zero-length body. *)
val empty : t

(** [of_string s] is the body [s], held as is. *)
val of_string : string -> t

(** [deferred ~length render] is a body of [length] bytes that [render]
    produces on demand. [render] must be deterministic; it runs once per
    {!to_string}, and nothing keeps its result. Raises [Invalid_argument]
    if [length < 0]. *)
val deferred : length:int -> (unit -> string) -> t

(** [length t] is the body's byte count. O(1); allocates nothing and
    renders nothing. *)
val length : t -> int

(** [to_string t] is the body's bytes, rendering a deferred body. Raises
    [Invalid_argument] if the rendering's length is not the declared
    one. *)
val to_string : t -> string
