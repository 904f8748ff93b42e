(** Per-node positive/negative cache fronting forwarded directory
    lookups (sharded metadata plane, see docs/METADATA_PLANE.md).

    A node that is not a key's shard home must cross the network to learn
    who caches the key. This small TTL-bounded cache remembers recent
    answers: a {e positive} entry short-circuits the forward straight to
    the cache owner, a {e negative} entry short-circuits straight to
    local execution. Both are advisory, never authoritative — a stale
    positive entry ends in a [Miss] reply from the owner (the false-hit
    path), a stale negative entry in a duplicate execution reconciled at
    the shard home (a false miss) — so the TTLs trade metadata traffic
    against the width of the weak-consistency window.

    Purely host-side and deterministic: no simulated charges, no random
    stream (eviction is FIFO by first insertion). *)

type t

(** The cache's answer for one key. *)
type verdict =
  | Hit of Meta.t  (** fresh positive entry: fetch from [meta.owner] *)
  | Absent  (** fresh negative entry: execute locally, skip the forward *)
  | Unknown  (** no fresh information: forward to the shard home *)

(** [create ~capacity ~pos_ttl ~neg_ttl] — [capacity >= 1] live entries
    (FIFO-evicted beyond that); TTLs in simulated seconds, both
    positive. Raises [Invalid_argument] otherwise. *)
val create : capacity:int -> pos_ttl:float -> neg_ttl:float -> t

(** [find t ~now key] consults the cache. A positive entry answers
    {!Hit} only while within its TTL {e and} the meta itself is
    unexpired; out-of-TTL entries are dropped and answer {!Unknown}. *)
val find : t -> now:float -> string -> verdict

(** [note_pos t ~now meta] records a forwarded lookup's positive answer,
    trusted until [now + pos_ttl]. *)
val note_pos : t -> now:float -> Meta.t -> unit

(** [note_neg t ~now key] records a forwarded lookup's negative answer,
    trusted until [now + neg_ttl]. *)
val note_neg : t -> now:float -> string -> unit

(** [invalidate t key] drops whatever is cached for [key] — called when
    a fetch based on a positive entry came back [Miss] (the entry was
    provably stale). *)
val invalidate : t -> string -> unit

(** [clear t] empties the cache (crash wipe). *)
val clear : t -> unit

(** [length t] is the number of live entries (counts toward the node's
    metadata memory). *)
val length : t -> int

(** [stats t] is [(pos_hits, neg_hits, misses, evictions)]. *)
val stats : t -> int * int * int * int
