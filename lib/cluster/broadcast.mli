(** Asynchronous directory-information broadcast.

    When a node inserts or deletes a cache entry it sends the update to
    every peer without waiting for acknowledgements — the paper's weak
    inter-node consistency protocol (no two-phase commit, no global locks;
    replicas may briefly diverge, producing false hits/misses). *)

(** [info ?should_abort net inboxes ~src ~bytes msg] transmits [msg]
    ([bytes] on the wire) from node [src] to every other node's info
    receiver, fire-and-forget. [inboxes.(i)] is node [i]'s info mailbox;
    peers are messaged in node order. The caller's simulated thread pays
    the (tiny) NIC transmission times; deliveries happen after the
    network latency. Returns the number of peers actually messaged.

    [should_abort] (default: never) is consulted before each per-peer
    send; once it returns [true] the remaining peers are skipped. The
    server passes the node's liveness so that a crash landing mid-fan-out
    leaves a {e genuinely partial} replica update — some peers applied the
    insert, the rest never heard of it — which is the divergence the
    paper's weak-consistency model allows and the anti-entropy daemon
    repairs. Must run in a process.

    [span] (default [0] = untraced) is stamped into each envelope so
    receivers can parent their apply spans on the originating request. *)
val info :
  ?should_abort:(unit -> bool) ->
  ?span:int ->
  Sim.Net.t ->
  'u Msg.info_envelope Sim.Mailbox.t array ->
  src:int ->
  bytes:int ->
  'u ->
  int

(** [info_sync net inboxes ~src ~bytes msg] sends [msg] with
    acknowledgement requests and blocks until every peer has applied it —
    the strong protocol of the consistency ablation. Returns the number of
    peers. [span] as in {!info}. *)
val info_sync :
  ?span:int ->
  Sim.Net.t ->
  'u Msg.info_envelope Sim.Mailbox.t array ->
  src:int ->
  bytes:int ->
  'u ->
  int

(** [fetch net endpoints ~src ~owner req] sends a data-fetch request to
    [owner]'s data server. [endpoints.(i)] is node [i]'s endpoints; an
    [owner] outside the array raises [Invalid_argument]. *)
val fetch :
  Sim.Net.t -> Endpoint.t array -> src:int -> owner:int ->
  Msg.fetch_request -> unit

(** [fetch_sync net endpoints ~src ~owner ~timeout ~retries ~backoff key]
    is the blocking data-server round-trip with bounded retry: it sends a
    fetch request and waits up to [timeout] simulated seconds for the
    reply; on timeout it retries with the timeout multiplied by [backoff]
    (exponential backoff), up to [retries] additional attempts. Returns
    [(reply, n)] where [n] is the number of retries actually performed;
    [reply] is [None] when every attempt timed out — the caller's cue to
    fall back to local CGI execution (the paper's false-hit path, §4.2,
    now also reachable through message loss or a crashed owner).

    Requires [timeout > 0], [retries >= 0], [backoff >= 1]. Each attempt
    uses a fresh reply mailbox, so a straggling reply to an abandoned
    attempt is ignored rather than mistaken for the current one. Must run
    in a process. [span] as in {!info}, stamped into each attempt's
    request. *)
val fetch_sync :
  ?span:int ->
  Sim.Net.t -> Endpoint.t array -> src:int -> owner:int -> timeout:float ->
  retries:int -> backoff:float -> string -> Msg.fetch_reply option * int
