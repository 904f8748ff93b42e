(** One node's partition of the sharded directory (see
    docs/METADATA_PLANE.md).

    Where the replicated {!Directory} keeps one table per cluster node on
    every node, a shard table is a single key→meta map holding only the
    keys the consistent-hash ring homes at (or hotspot-replicates to)
    this node. A probe takes one lock acquisition and one hash lookup
    regardless of cluster size — the O(n)→O(1) local-work change that
    motivates the sharded plane.

    Locked operations ({!probe}, {!insert}, {!delete}, {!purge_owner})
    charge [lock_overhead] simulated seconds per acquisition through
    [charge], exactly like the replicated directory, so the two planes
    are compared under the same cost model; they must run inside a
    simulated process. The unlocked operations ({!prune}, {!reset},
    {!find}, {!entries}) are for event callbacks and post-run
    introspection and charge nothing. *)

type t

(** [create ?lock_overhead ?charge ?lock_observe ()] builds an empty
    shard table. [lock_overhead] (default [2e-6] s) is charged through
    [charge] (default [Sim.Engine.delay]; the server passes the owning
    node's CPU) on every locked operation. [lock_observe] is installed
    on the rwlock for contention profiling, as in {!Directory.create}. *)
val create :
  ?lock_overhead:float ->
  ?charge:(float -> unit) ->
  ?lock_observe:(kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) ->
  unit ->
  t

(** [probe t ~now key] is the live meta stored for [key], under a read
    lock. Expired metas are treated as absent but not removed (the cache
    owner's purge daemon announces the delete, as in replicated mode). *)
val probe : t -> now:float -> string -> Meta.t option

(** [insert t meta] records an announcement under the write lock.
    Announcements are reconciled newest-wins on [Meta.created] (a handoff
    re-announcement must not clobber a fresher execution):
    [`Inserted] — the key was absent; [`Replaced old] — [meta] superseded
    [old] (when the cache owners differ, a duplicate execution of the same
    key on two nodes); [`Stale] — a newer entry was kept and [meta] was
    discarded. *)
val insert : t -> Meta.t -> [ `Inserted | `Replaced of Meta.t | `Stale ]

(** [delete t ?owner key] removes [key] under the write lock; [true] if
    removed. With [owner] set, the entry is only removed when its cache
    owner matches — a delete announcement for a copy that has since been
    re-announced by another node must not kill the live entry. *)
val delete : t -> ?owner:int -> string -> bool

(** [purge_owner t ~node] drops every entry cached at [node], under the
    write lock; returns the count. O(entries dropped) via the owner
    index. The sharded analogue of {!Directory.purge_node}: run when
    [node] is declared dead (crash event or fetch-timeout suspicion). *)
val purge_owner : t -> node:int -> int

(** [prune t ~keep] removes every entry whose key fails [keep], without
    locks or simulated charges — the handoff path dropping entries whose
    ring home moved elsewhere runs from plain event callbacks. Returns
    the count removed. *)
val prune : t -> keep:(string -> bool) -> int

(** [reset t] empties the table without locks or charges (a crashing
    node losing its shard is a failure event, not simulated work);
    returns how many entries were dropped. *)
val reset : t -> int

(** [find t key] is the raw stored meta, expired or not, without locks
    or charges — for tests and merge probes. *)
val find : t -> string -> Meta.t option

(** [entries t] lists the stored metas (unordered), uncharged. *)
val entries : t -> Meta.t list

(** [length t] is the number of stored entries — this node's share of
    the directory, the sharded plane's memory metric. *)
val length : t -> int

(** [lock_acquisitions t] is the cumulative (read, write) acquisition
    count, comparable with {!Directory.lock_acquisitions}. *)
val lock_acquisitions : t -> int * int
