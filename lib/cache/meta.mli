(** Cache-entry meta-data: what the replicated global directory stores about
    each cached CGI result (the result body itself lives only in the owner
    node's local store, in a per-entry disk file).

    The record is private: only {!make} builds one, so [hash] always
    describes the other fields. *)

type t = private {
  key : string;  (** canonical request key *)
  owner : int;  (** node holding the result file *)
  size : int;  (** result size in bytes *)
  exec_time : float;  (** measured CGI execution time, drives replacement *)
  created : float;  (** simulation time of insertion *)
  expires : float option;  (** absolute expiry (creation + TTL), if any *)
  hash : int;
      (** FNV-1a over the fields above: the key's bytes and length, then
          owner and size as 8 little-endian bytes each, the IEEE bits of
          [exec_time] and [created], and a presence byte followed by the
          bits of [expires], folded to 58 bits. Stable across runs and
          processes; the term a {!Directory} table's digest XORs. Computed
          once, by {!make}. *)
}

val make :
  key:string ->
  owner:int ->
  size:int ->
  exec_time:float ->
  created:float ->
  expires:float option ->
  t

(** [expired t ~now] is [true] when [t] has an expiry in the past — or at
    the exact expiry instant: a result is stale the moment its TTL has
    fully elapsed, so a hit's age is strictly below its TTL. *)
val expired : t -> now:float -> bool

(** [cost t] is the recompute cost of the entry — the measured CGI
    execution time the {!Freshness} controller and proactive refresh
    weigh against staleness. *)
val cost : t -> float

(** [age t ~now] is [now - created], the staleness of a result served at
    [now]. *)
val age : t -> now:float -> float

val pp : Format.formatter -> t -> unit
