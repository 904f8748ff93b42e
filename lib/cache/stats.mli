(** Cache statistics, kept by each local store. *)

type t = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable bytes_stored : int;  (** current resident bytes *)
}

val create : unit -> t

(** [hit_ratio t] is hits / (hits + misses), [0.] when no lookups. *)
val hit_ratio : t -> float

val merge : t -> t -> t
