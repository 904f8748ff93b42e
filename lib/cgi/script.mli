(** A registered CGI program.

    [cacheable] mirrors Swala's configuration file: the administrator marks
    which programs may have their results cached (scripts whose output
    depends on the requesting user must not be). [ttl] is the per-CGI
    Time-To-Live that implements the paper's weak content consistency. *)

type t = {
  name : string;  (** URL path, e.g. ["/cgi-bin/query"] *)
  cost : Cost.t;
  cacheable : bool;
  ttl : float option;  (** [None] = never expires *)
  failure_rate : float;  (** probability an execution exits non-zero *)
  sources : string list;
      (** input files this program reads; when one changes, every cached
          result of the program is stale (the Vahdat-Anderson transparent
          result-caching model the paper cites as future work) *)
}

val make :
  ?cacheable:bool -> ?ttl:float option -> ?failure_rate:float ->
  ?sources:string list -> name:string -> Cost.t -> t

(** [null] is WebStone's [nullcgi]: no work, under a hundred bytes of
    output. Running it measures pure invocation overhead (paper §5.1). *)
val null : t

(** [output t ~key] deterministically renders the body this script produces
    for a given canonical request key, sized per the script's cost model. *)
val output : t -> key:string -> string

(** [output_sized t ~key ~bytes] renders a body of approximately [bytes]
    bytes (used when a trace overrides the script's default output size):
    exactly [46 + String.length t.name + max 0 (bytes - 96)] bytes,
    whatever the key. *)
val output_sized : t -> key:string -> bytes:int -> string

(** [body t ~key ~bytes] is {!output_sized} as a deferred
    {!Http.Body.t}: its length is computed, and it is rendered only when
    read. This is what the server model caches and ships. *)
val body : t -> key:string -> bytes:int -> Http.Body.t
