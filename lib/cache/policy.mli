(** Cache-replacement policies.

    The paper defers its five replacement methods to the companion technical
    report, describing them as based on "execution time, access frequency,
    time of access, size etc." (§3). We implement that whole family. A
    policy is expressed as a priority: the entry with the {e smallest}
    priority is evicted first. Priorities may depend on access history, so
    the store recomputes them on every touch and re-keys the entry in its
    heap.

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

(** [priority p cell ~clock ~meta ~last_access ~hits ~inserted] stores
    the eviction priority (smaller = evicted sooner) of an entry with
    [meta] in [cell]. The entry was last touched at [last_access], has
    been hit [hits] times and was inserted at [inserted]. [clock] is the
    store's GDSF inflation value; other policies ignore it. [Random] has
    no meaningful priority and the store handles it separately. The
    result goes to a {!Sim.Pqueue.cell} rather than being returned, so
    it is never boxed: the store computes one on every hit and
    insert. *)
val priority :
  t ->
  Sim.Pqueue.cell ->
  clock:float ->
  meta:Meta.t ->
  last_access:float ->
  hits:int ->
  inserted:float ->
  unit

(** [uses_clock p] is [true] only for [Gdsf]. *)
val uses_clock : t -> bool
