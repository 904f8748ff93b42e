(** The sharded metadata plane: each key's entry lives only at its acting
    home on a consistent-hash {!Cache.Ring}, in that node's
    {!Cache.Shard_table}; updates are unicast there, and lookups from
    other nodes are forwarded to it, behind a {!Cache.Lookup_cache} and
    {!Cache.Hotspot} replication. After every liveness change the live
    nodes re-announce what they cache to the (possibly new) homes. *)

include Plane.S

(** [create ctx ?lock_observe ~fwd_wait ()] builds the ring and every
    node's shard state. Forwarded-lookup round trips, timeouts included,
    are recorded in [fwd_wait]. *)
val create :
  Node.ctx ->
  ?lock_observe:(kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) ->
  fwd_wait:Metrics.Histogram.t ->
  unit ->
  t

(** [ring p] is the cluster's one shared ring. *)
val ring : t -> Cache.Ring.t

(** [table p i] is node [i]'s partition of the directory. *)
val table : t -> int -> Cache.Shard_table.t
