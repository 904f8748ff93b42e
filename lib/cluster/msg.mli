(** Inter-node protocol messages (paper §4.1-4.2).

    Three daemon threads per node consume these: the info receiver applies
    directory updates to the node's metadata plane, the data server
    answers {!fetch_request}s, and the purge thread originates [Delete]
    broadcasts for expired entries. *)

(** What actually travels on the info channel: one update of the
    metadata plane's own type (below), so a receiver can only be handed
    updates its plane sends. Under the paper's weak
    protocol [ack] is [None] (fire-and-forget); the synchronous-consistency
    ablation sets it to [(sender, mailbox)], and the receiver acknowledges
    over the network after applying the update, letting the sender block
    until every replica is consistent — the "variation of a two-phase
    commit" §4.2 rejects as too expensive. *)
type 'u info_envelope = {
  info : 'u;
  ack : (int * unit Sim.Mailbox.t) option;  (** (sender endpoint, inbox) *)
  span : int;
      (** originating span id for causal tracing ([0] = untraced); carries
          no simulated bytes — it models nothing the 1998 protocol sent *)
}

(** Replicated-plane updates, broadcast to every peer after local inserts
    and deletes: an insert, a delete, or a flat batch of those. [Batch]
    carries several coalesced updates under one shared envelope
    (Nagle-style batching, see [Core.Replicated_plane]); receivers apply
    them in list order, so a later update to the same key wins.

    The index says whether a value may be a batch: [Insert] and [Delete]
    are both [one t] and [any t], [Batch] is only [any t] and holds
    [one t]s, so batches cannot nest. The info channel carries
    [any t]. *)
module Replicated : sig
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

(** Sharded-plane updates: point-to-point announcements on the info
    channel. [Insert]/[Delete] travel only to the key's shard home, and
    [Promote]/[Demote] are the hotspot-replication control messages a
    home sends its replica set — [Promote] pushes a hot key's entry to a
    ring successor, [Demote] retracts it once the key cools. *)
module Sharded : sig
  type t =
    | Insert of Cache.Meta.t
    | Delete of { node : int; key : string }
    | Promote of Cache.Meta.t
    | Demote of { key : string }

  (** [bytes u] is the approximate wire size, priced like the replicated
      plane's bare updates. *)
  val bytes : t -> int

  (** [key u] is the cache key the update is about. *)
  val key : t -> string
end

(** Reply to a remote-cache fetch. [Miss] is the protocol's "false hit"
    outcome: the entry was deleted at the owner after the requester looked
    it up; the requester then executes the CGI locally (Figure 2). *)
type fetch_reply =
  | Hit of { meta : Cache.Meta.t; body : Http.Body.t }
  | Miss of { key : string }

(** A remote-cache fetch, sent to the owner's data server. The reply
    arrives in [reply]; under a fetch timeout the requester may abandon
    the mailbox and retransmit with a fresh one. *)
type fetch_request = {
  key : string;
  requester : int;  (** endpoint id awaiting the reply *)
  reply : fetch_reply Sim.Mailbox.t;
  span : int;  (** originating span id for causal tracing; [0] = untraced *)
}

(** {1 Sharded-plane directory lookups}

    Under the sharded metadata plane a node that is not a key's shard
    home learns who caches the key by asking the home — a blocking
    request/reply round trip, answered by the home's lookup server. *)

(** The home's answer: the live directory entry, or proof of absence
    (the requester's cue to execute locally and announce the result). *)
type lookup_reply = Found of Cache.Meta.t | Absent of { key : string }

(** A forwarded directory lookup, sent to the key's acting shard home.
    Like a fetch, the requester may abandon [lreply] on timeout (home
    crashed or partitioned away) and fall back to local execution. *)
type lookup_request = {
  lkey : string;  (** the cache key being resolved *)
  lrequester : int;  (** endpoint id awaiting the reply *)
  lreply : lookup_reply Sim.Mailbox.t;
  lspan : int;  (** originating span id for causal tracing; [0] = untraced *)
}

(** {1 Anti-entropy (directory repair)}

    Periodic digest exchange between random peers, the lazy repair channel
    that reconverges directory replicas after a partition heals or a
    mid-broadcast crash left a partial update. The paper's weak protocol
    tolerates divergent replicas; anti-entropy bounds how long they stay
    divergent. *)

(** Content summary of one directory table: entry count plus an
    order-independent hash (see [Cache.Directory.digest]). *)
type digest = { n_entries : int; hash : int }

(** The responder's answer: for every table whose digest differed, its
    full entry list. The requester merges each table by recency (newest
    [created] wins per key); anti-entropy never deletes — deletions
    travel on the ordinary broadcast and purge paths. *)
type sync_reply = { tables : (int * Cache.Meta.t list) list }

(** One round's opening message: the requester's per-table digests. The
    reply arrives in [sync_reply]; like a fetch, the requester may abandon
    the mailbox on timeout (peer down or partitioned away). *)
type sync_request = {
  from_node : int;  (** requesting endpoint, for the reply's address *)
  digests : digest array;  (** indexed by table/node id *)
  sync_reply : sync_reply Sim.Mailbox.t;
  span : int;  (** originating span id for causal tracing; [0] = untraced *)
}

(** Approximate wire sizes, used to charge the network model. *)

(** [fetch_request_bytes r] is the request's approximate wire size. *)
val fetch_request_bytes : fetch_request -> int

(** [lookup_request_bytes r] is a forwarded directory lookup's size
    (envelope plus the key text). *)
val lookup_request_bytes : lookup_request -> int

(** [lookup_reply_bytes r] is the home's answer size; [Found] carries a
    meta record like an [Insert]. *)
val lookup_reply_bytes : lookup_reply -> int

(** [fetch_reply_bytes r] is the reply's approximate wire size ([Hit]
    includes the cached body, by its {!Http.Body.length}). *)
val fetch_reply_bytes : fetch_reply -> int

(** [sync_request_bytes r] is a digest exchange's opening size (12 bytes
    per table digest plus the envelope). *)
val sync_request_bytes : sync_request -> int

(** [sync_reply_bytes r] is the pull reply's size: each shipped meta costs
    its key plus a fixed record, mirroring {!Replicated.bytes}. *)
val sync_reply_bytes : sync_reply -> int
