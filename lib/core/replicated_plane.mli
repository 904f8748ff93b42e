(** The replicated metadata plane, the paper's design (§4.2): every node
    holds a full {!Cache.Directory} replica, kept consistent by
    broadcasting every insert and delete to every peer — optionally
    batched ([Config.batch_max]) and repaired by anti-entropy
    ([Config.anti_entropy_period]). A lookup never leaves the node. *)

include Plane.S

(** Directory updates, broadcast to every peer after local inserts and
    deletes: an insert, a delete, or a flat batch of those. [Batch]
    carries several coalesced updates under one shared envelope
    (Nagle-style batching, [Config.batch_max]); receivers apply them in
    list order, so a later update to the same key wins.

    The index says whether a value may be a batch: [Insert] and [Delete]
    are both [one t] and [any t], [Batch] is only [any t] and holds
    [one t]s, so batches cannot nest. The info channel carries
    [any t]. *)
module Update : sig
  type one = [ `One ]
  type any = [ `Any ]

  type _ t =
    | Insert : Cache.Meta.t -> 'k t
    | Delete : { node : int; key : string } -> 'k t
    | Batch : one t list -> any t

  (** [bytes u] is the approximate wire size. A [Batch] pays one envelope
      plus a 12-byte sub-header per update, so batching amortizes the
      fixed per-message cost. *)
  val bytes : _ t -> int

  (** [updates u] is how many updates [u] carries: 1, or a batch's
      length. *)
  val updates : _ t -> int
end

(** [info ?should_abort ?span net inboxes ~src ~bytes msg] broadcasts
    [msg] ([bytes] on the wire) from node [src] to every other node's
    info receiver, fire-and-forget: the paper's weak inter-node
    consistency protocol (no two-phase commit, no global locks; replicas
    may briefly diverge, producing false hits and misses).
    [inboxes.(i)] is node [i]'s info mailbox; peers are messaged in node
    order. The caller's simulated thread pays the (tiny) NIC
    transmission times; deliveries happen after the network latency.
    Returns the number of peers actually messaged.

    [should_abort] (default: never) is consulted before each per-peer
    send; once it returns [true] the remaining peers are skipped. The
    plane passes the node's liveness so that a crash landing mid-fan-out
    leaves a {e genuinely partial} replica update — some peers applied the
    insert, the rest never heard of it — which is the divergence the
    paper's weak-consistency model allows and anti-entropy repairs. Must
    run in a process.

    [span] (default [0] = untraced) is stamped into each envelope so
    receivers can parent their apply spans on the originating request. *)
val info :
  ?should_abort:(unit -> bool) ->
  ?span:int ->
  Sim.Net.t ->
  'u Node.info_envelope Sim.Mailbox.t array ->
  src:int ->
  bytes:int ->
  'u ->
  int

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
  t -> int -> Update.any Update.t Node.info_envelope Sim.Mailbox.t
