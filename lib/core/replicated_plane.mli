(** The replicated metadata plane, the paper's design (§4.2): every node
    holds a full {!Cache.Directory} replica, kept consistent by
    broadcasting every insert and delete to every peer — optionally
    batched ([Config.batch_max]) and repaired by anti-entropy
    ([Config.anti_entropy_period]). A lookup never leaves the node. *)

include Plane.S

(** [create ctx ?lock_observe ()] builds every node's replica; directory
    lock and scan work is charged to the owning node's CPU.
    [lock_observe] is installed on the directory locks for contention
    profiling. *)
val create :
  Node.ctx ->
  ?lock_observe:(kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) ->
  unit ->
  t

(** [directory p i] is node [i]'s directory replica. *)
val directory : t -> int -> Cache.Directory.t

(** [info_mailbox p i] is node [i]'s info receiver inbox; tests and the
    Table 4 pseudo-server inject updates there. *)
val info_mailbox :
  t ->
  int ->
  Cluster.Msg.Replicated.any Cluster.Msg.Replicated.t
  Cluster.Msg.info_envelope
  Sim.Mailbox.t
