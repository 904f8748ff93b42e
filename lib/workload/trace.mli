(** Workload traces: the sequence of requests an experiment replays.

    A trace item is deliberately self-contained — it carries the CPU demand
    its CGI would take — so the same trace can be analysed offline (Table 1)
    and replayed against the simulated cluster (Figure 4) with identical
    service times. All repeats of the same key carry the same demand, like
    re-running the same query against a read-only digital library. *)

type kind =
  | File of { path : string; bytes : int }
  | Cgi of {
      script : string;  (** script path, e.g. ["/cgi-bin/query"] *)
      args : (string * string) list;
      demand : float;  (** dedicated-CPU seconds per execution *)
      out_bytes : int;
    }

type item = { id : int; kind : kind }

type t = item list

(** [key item] is the canonical cache key (matches
    [Http.Request.cache_key] of {!to_request}). *)
val key : item -> string

(** [to_request item] builds the HTTP request a client would send: for a
    CGI item, straight from its script and arguments, with no URI printed
    or parsed. Raises [Invalid_argument] when the script path is not
    absolute. *)
val to_request : item -> Http.Request.t

(** [service_time item] is the unloaded service time: CGI demand, or a
    nominal per-byte file time (used by the offline analyzer). *)
val service_time : item -> float

val is_cgi : item -> bool

(** [unique_keys t] counts distinct keys. *)
val unique_keys : t -> int

(** [total_service t] sums {!service_time}. *)
val total_service : t -> float

val length : t -> int
