(** Switched-LAN network model.

    Messages between nodes experience a fixed one-way latency plus a
    transmission time [bytes / bandwidth] serialised through the sender's
    NIC (a switched 100 Mbit Ethernet, as in the paper's testbed, has no
    shared-medium contention, but each host's link is a serial resource).

    Deliveries are asynchronous: {!send} returns once the sender's NIC has
    transmitted the message, which arrives in the destination mailbox a
    latency later. {!transfer} is the blocking variant used to model a
    request/reply byte stream from the caller's point of view. Both must
    be called from a process. *)

type t

val create :
  ?latency:float ->
  ?extra_latency:(int -> float) ->
  ?bandwidth:float ->
  ?fault:Fault.t ->
  Engine.t ->
  n_endpoints:int ->
  t
(** Defaults: [latency = 0.2 ms] one-way, [bandwidth = 12.5 MB/s]
    (100 Mbit/s). [n_endpoints] sizes the per-host NIC resources; endpoint
    ids are [0 .. n_endpoints-1].

    [extra_latency], when given, maps an endpoint id to extra one-way
    latency: a message (or {!transfer}) between [src] and [dst] flies for
    [latency + extra_latency src + extra_latency dst] — how geo-tiered
    client populations put WAN distance on their links while the cluster
    LAN keeps the base latency. Omitted (the default), the delivery path
    is exactly the fixed-latency behaviour.

    [fault] attaches a {!Fault} plan, the network's only source of lost
    messages: every inter-host {!send} asks the plan for its fate —
    delivered after its latency, or silently dropped (link loss, a down
    endpoint or a partition). The plan counts its own drops
    ({!Fault.drops}). Loopback messages and blocking {!transfer}s are
    never faulted, mirroring TCP's reliability for established streams
    vs. datagram-style notifications. Without a plan (or with a zero plan)
    every message is delivered after its latency. *)

(** [send net ~src ~dst ~bytes mailbox msg] transmits asynchronously:
    occupies [src]'s NIC for the transmission time, then delivers [msg] to
    [mailbox] after the latency. Must be called from a process. *)
val send : t -> src:int -> dst:int -> bytes:int -> 'a Mailbox.t -> 'a -> unit

(** [transfer net ~src ~dst ~bytes] blocks the calling process for the full
    transfer of [bytes] from [src] to [dst] (transmission + latency). *)
val transfer : t -> src:int -> dst:int -> bytes:int -> unit

(** [messages_sent t] counts every {!send} and {!transfer}, including
    loopback and dropped messages. *)
val messages_sent : t -> int

(** [bytes_sent t] is the total payload bytes across all messages. *)
val bytes_sent : t -> int
