(** Cache-replacement policies.

    The paper defers its five replacement methods to the companion technical
    report, describing them as based on "execution time, access frequency,
    time of access, size etc." (§3). We implement that whole family. A
    policy is expressed as a priority: the entry with the {e smallest}
    priority is evicted first. Priorities may depend on access history, so
    the store recomputes them on every touch (with lazy heap invalidation).

    [Gdsf] (GreedyDual-Size-Frequency, Cao-Irani style with CGI execution
    time as the cost metric) additionally uses an inflation clock supplied
    by the store so that recently useful entries age rather than starve. *)

type t =
  | Lru  (** evict least recently used *)
  | Fifo  (** evict oldest insertion *)
  | Lfu  (** evict least frequently used *)
  | Largest_size  (** evict biggest result first *)
  | Cheapest_recompute  (** evict the result cheapest to regenerate *)
  | Gdsf  (** frequency x exec-time / size, with aging *)
  | Random  (** evict uniformly at random *)

val all : t list
val to_string : t -> string

(** Access statistics a priority may depend on. *)
type access = { last_access : float; hits : int; inserted : float }

(** [priority p ~clock ~meta ~access] computes the eviction priority
    (smaller = evicted sooner). [clock] is the store's GDSF inflation value;
    other policies ignore it. [Random] has no meaningful priority and the
    store handles it separately. *)
val priority : t -> clock:float -> meta:Meta.t -> access:access -> float

(** [uses_clock p] is [true] only for [Gdsf]. *)
val uses_clock : t -> bool
