(** HTTP/1.0 requests: construction, wire parsing and printing. *)

type t = {
  meth : Meth.t;
  uri : Uri.t;
  version : string;  (** e.g. ["HTTP/1.0"] *)
  headers : Headers.t;
  body : string;
}

(** [make ?headers ?body meth target] parses [target] as a request-URI.
    Raises [Invalid_argument] on a malformed target (programmatic use). *)
val make : ?headers:Headers.t -> ?body:string -> Meth.t -> string -> t

(** [of_uri ?headers ?body meth uri] is [make ?headers ?body meth
    (Uri.to_string uri)] without printing and parsing the URI back.
    Raises [Invalid_argument] when [uri]'s path is not absolute, as
    [make] does. *)
val of_uri : ?headers:Headers.t -> ?body:string -> Meth.t -> Uri.t -> t

(** [get target] is [make Get target]. *)
val get : string -> t

(** [parse s] reads a full request off the wire (request line, headers,
    CRLF or bare-LF line endings, optional body per [Content-Length]). *)
val parse : string -> (t, string) result

(** [to_wire t] serialises with CRLF line endings, adding
    [Content-Length] when a body is present. *)
val to_wire : t -> string

(** [cache_key t] is the canonical identity used by the result cache:
    method + canonicalised URI. Two requests with equal keys would execute
    identically (for cacheable scripts). *)
val cache_key : t -> string

(** [of_cache_key key] reads a {!cache_key} back: the method and the
    canonical URI, as a bodiless HTTP/1.0 request; [None] when [key] is
    not of that form. The path comes back percent-decoded. *)
val of_cache_key : string -> t option

(** [wire_size t] is [String.length (to_wire t)], summed without
    serialising (used to charge the network model). *)
val wire_size : t -> int

