(** Consistent-hash ring with virtual nodes — the key→shard-home mapping
    of the sharded metadata plane (see docs/METADATA_PLANE.md).

    Each physical node contributes [vnodes] points to a 58-bit hash
    circle; a key is homed at the physical node owning the first point
    clockwise of the key's hash. The structure is immutable and shared:
    liveness is supplied per query ({!acting_owner}), so node crashes and
    restarts never rebuild the ring and every node that agrees on the
    liveness view agrees on the mapping. Hashing is FNV-1a over stable
    strings, so the mapping is identical across runs and processes. *)

type t

(** [create ~nodes ~vnodes] builds the ring for physical nodes
    [0 .. nodes-1] with [vnodes] points each. Raises [Invalid_argument]
    unless both are [>= 1]. O(nodes·vnodes·log) once per cluster. *)
val create : nodes:int -> vnodes:int -> t

(** [owner t key] is the key's home node — the physical node owning the
    first ring point at or clockwise after [hash key]. O(log points). *)
val owner : t -> string -> int

(** [successors t key ~k] is the first [min k nodes] {e distinct}
    physical nodes encountered walking clockwise from the key's point.
    The head of the list is {!owner}; the tail is the replica set a
    promoted hotspot key is pushed to, and the handoff order when the
    home crashes. Raises [Invalid_argument] when [k < 1]. *)
val successors : t -> string -> k:int -> int list

(** [acting_owner t ~up key] is the first node in successor order for
    which [up node] holds — the node that currently answers for the
    key's shard. [None] only when every node is down. With all nodes up
    this is [Some (owner t key)]. *)
val acting_owner : t -> up:(int -> bool) -> string -> int option

(** [spread t ~keys] counts, per physical node, how many of [keys] it
    homes — the load-balance diagnostic behind the shard-imbalance
    histogram. *)
val spread : t -> keys:string list -> int array
