(** Named integer counters, the bookkeeping spine of every experiment
    (hits, misses, false hits, broadcasts, evictions, ...). *)

type t

val create : unit -> t

(** [incr t name] adds 1 to [name] (creating it at 0). *)
val incr : t -> string -> unit

(** [add t name k] adds [k]. *)
val add : t -> string -> int -> unit

(** [get t name] is the current value, [0] if never touched. *)
val get : t -> string -> int

(** [names t] lists touched counters, sorted. *)
val names : t -> string list

(** [merge a b] sums both counter sets into a fresh one. *)
val merge : t -> t -> t

(** [equal a b] is [true] when both hold exactly the same names with the
    same values — the determinism-replay tests' comparison. *)
val equal : t -> t -> bool
