(** Bounded local result cache of one Swala node.

    Holds the cached bodies (standing in for the per-entry disk files of
    §4.1; a CGI result is held as a deferred {!Http.Body.t}, so an entry
    costs the same memory whatever its size) together with their
    meta-data, enforces an entry-count capacity
    with a pluggable replacement {!Policy}, and applies TTL expiry. All
    operations are O(log n): each entry holds one element of a priority
    heap ({!Sim.Pqueue.Indexed}), re-keyed in place on every hit, so the
    heap never holds more elements than the store holds entries;
    [Random] replacement uses an O(1) dense key array instead.

    The store is purely a data structure: it never blocks, so it can be used
    from simulated processes and plain test code alike. Time is supplied by
    the [clock] function given at creation. *)

type t

type entry = { meta : Meta.t; body : Http.Body.t }

val create :
  capacity:int -> policy:Policy.t -> clock:(unit -> float) ->
  ?rng:Sim.Rng.t -> unit -> t
(** [capacity] is the maximum number of entries ([>= 1]). [rng] is
    required for [Policy.Random] and ignored otherwise. *)

(** [lookup t key] returns the entry and updates recency/frequency, or
    [None] (counting a miss). An entry past its expiry is dropped and
    reported as a miss (+1 expiration). *)
val lookup : t -> string -> entry option

(** [peek t key] is {!lookup} without touching access statistics or
    counting hit/miss; expired entries still return [None]. *)
val peek : t -> string -> entry option

(** [insert_body t meta body] adds or replaces; evicts per policy when
    full. Returns the evicted metas (oldest victim first) so the caller
    can broadcast the corresponding delete messages. The byte accounting
    reads [meta.size]; [body] is stored as given, never rendered. *)
val insert_body : t -> Meta.t -> Http.Body.t -> Meta.t list

(** [insert t meta body] is [insert_body t meta (Http.Body.of_string
    body)]. *)
val insert : t -> Meta.t -> string -> Meta.t list

(** [remove t key] deletes an entry; [true] if present. Used when a remote
    delete broadcast arrives or consistency demands invalidation. *)
val remove : t -> string -> bool

(** [remove_matching t pred] deletes every entry whose key satisfies
    [pred]; returns the removed metas. This is the invalidation hook:
    application-driven and source-monitoring invalidation drop all results
    of an affected script in one sweep. *)
val remove_matching : t -> (string -> bool) -> Meta.t list

(** [purge_expired t] drops every entry past its expiry (the cacher
    module's third daemon thread); returns their metas. *)
val purge_expired : t -> Meta.t list

(** [clear t] drops every entry at once, returning how many were held.
    This models losing the cache wholesale (a node crash): unlike
    {!remove_matching} it does not enumerate victims, and it counts
    neither evictions nor expirations. *)
val clear : t -> int

(** A proactive-refresh candidate: the live entry plus the access
    statistics the refresh daemon filters on ([c_expires] is the entry's
    absolute expiry, always set for candidates). *)
type candidate = {
  c_entry : entry;
  c_last_access : float;
  c_hits : int;
  c_expires : float;
}

(** [expiring t ~now ~horizon] lists the entries expiring within
    [(now, now + horizon]], sorted by (expiry, key) for deterministic
    iteration. Read-only: touches no access statistics and counts
    nothing; already-expired entries are not listed (the purge daemon
    owns those). *)
val expiring : t -> now:float -> horizon:float -> candidate list

val mem : t -> string -> bool
val length : t -> int
val keys : t -> string list
val stats : t -> Stats.t
