(** Replicated global cache directory (paper §4.2).

    Every node holds one table per node in the group; table [j] describes
    what node [j] has cached. A lookup probes the tables one by one under
    read locks; insert/delete messages (local or broadcast from peers)
    update a single table under a write lock.

    The paper argues for table-granularity locking against two
    alternatives: one lock for the whole directory (too much contention)
    and one lock per entry (too many lock operations per lookup). All three
    are implemented behind {!granularity} so the trade-off can be measured
    (ablation A2): each lock acquisition charges [lock_overhead] seconds of
    simulated delay, and with [Per_entry] a table probe charges one
    acquisition per entry scanned, following the paper's argument that a
    lookup searches a portion of each table.

    Locking operations can suspend the calling process, so directory calls
    must happen inside a simulated process. *)

type granularity = Global | Per_table | Per_entry

type t

val create :
  ?granularity:granularity ->
  ?lock_overhead:float ->
  ?scan_cost:float ->
  ?charge:(float -> unit) ->
  ?hints:bool ->
  ?lock_observe:(kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) ->
  nodes:int ->
  unit ->
  t
(** [nodes] is the group size; tables are indexed [0 .. nodes-1].
    [lock_overhead] defaults to [2e-6] s per acquisition. [scan_cost]
    (default [0.]) is charged per entry of the probed table {e while the
    lock is held} — it models the paper's table scan, whose serialisation
    is exactly what distinguishes the three granularities under load.
    [charge] spends the accumulated seconds (default [Sim.Engine.delay]);
    the server passes the owning node's CPU so that lock and scan work
    contends with request processing.

    [hints] (default [false]) maintains a key→owner-set hint index so
    {!lookup_from} probes only tables hinted to hold the key. Hints may
    be stale but are never authoritative: a false hint (every hinted
    probe misses) falls back to the full ordered scan, exactly like the
    paper tolerates false hits/misses. The owner set is an [int] bitmask,
    so [hints] caps [nodes] at [Sys.int_size - 2].

    [lock_observe] is installed on the global lock and every table lock
    (see {!Sim.Rwlock.create}): one observation per acquisition, with the
    access kind and simulated wait. Contention profiling only — it does
    not affect timing. *)

(** [lookup t key] probes every table (self first is the caller's choice;
    this probes in index order) and returns the first live entry. Expired
    metas are treated as absent but not removed (the owner's purge daemon
    broadcasts the delete). *)
val lookup : t -> now:float -> string -> Meta.t option

(** [lookup_from t ~self ~now key] probes [self]'s table first, then the
    others in index order — preferring a local hit over a remote one. The
    probe order is computed position by position, so the chain stores
    and allocates nothing. With [hints] enabled only hinted tables are
    probed, falling back to the full scan when the hint set is empty or
    every hinted probe misses. A fully false hint (every hinted probe
    missed — the entries expired, or the owner changed under the key)
    additionally {e repairs} the index: the stale mask is dropped and
    the table where the fallback scan finds the key, if any, is
    re-hinted, so one stale hint costs one fallback scan rather than one
    per lookup forever. *)
val lookup_from : t -> self:int -> now:float -> string -> Meta.t option

(** [insert t ~node meta] records [meta] in [node]'s table. *)
val insert : t -> node:int -> Meta.t -> unit

(** [delete t ~node key] removes [key] from [node]'s table; [true] if it
    was present. *)
val delete : t -> node:int -> string -> bool

(** [purge_node t ~node] empties [node]'s table under its write lock,
    charging lock overhead like any other update; returns how many entries
    were dropped. This is the lazy repair path of the failure model: when a
    peer stops answering fetches, the requester discards its replica of
    that peer's table wholesale rather than waiting for delete broadcasts
    that will never come. Must run inside a simulated process. *)
val purge_node : t -> node:int -> int

(** [reset_node t ~node] is {!purge_node} without locks or simulated
    charges, for use from plain event callbacks (a crashing node wiping its
    own table is a failure event, not simulated work). *)
val reset_node : t -> node:int -> int

(** [entries t ~node] lists a table's metas (unordered). *)
val entries : t -> node:int -> Meta.t list

(** [find t ~node key] is the raw stored meta for [key] in [node]'s table,
    expired or not, without locks or simulated charges — the anti-entropy
    merge's recency probe (the caller charges its own round cost and
    serialises rounds itself). *)
val find : t -> node:int -> string -> Meta.t option

(** [digest t ~node] is [(count, hash)] over one table's content: the
    entry count plus an order-independent XOR of stable per-entry hashes.
    Two replicas of a table agree element-wise iff (modulo the usual hash
    caveat) their digests agree — the anti-entropy daemon's comparison.
    Pure: takes no locks and charges no simulated time (the daemon charges
    its own CPU cost per round). O(1): the XOR is maintained incrementally
    by insert/delete/purge. *)
val digest : t -> node:int -> int * int

(** [digest_slow t ~node] recomputes the digest from scratch by hashing
    every entry — the pre-optimization behaviour, kept as the reference
    for the incremental path. *)
val digest_slow : t -> node:int -> int * int

(** [table_size t ~node] is the number of metas in one table. *)
val table_size : t -> node:int -> int

(** [total_size t] sums all tables. *)
val total_size : t -> int

val nodes : t -> int

(** [hints_enabled t] is whether the hint index is maintained. *)
val hints_enabled : t -> bool

(** [hint_stats t] is [(probes_saved, false_hints)]: table probes skipped
    thanks to the hint index, and lookups where every hinted probe missed
    and the full-scan fallback ran. *)
val hint_stats : t -> int * int

(** [lock_acquisitions t] is the cumulative (read, write) acquisition count
    across the whole directory — the ablation's measured quantity. *)
val lock_acquisitions : t -> int * int
