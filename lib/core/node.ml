(** What a server node is apart from its metadata plane, and the context
    the planes run in. {!Server} builds both and owns the request path;
    the plane modules ({!Plane.S}) read and charge the same nodes,
    counters and spans, and start the receivers below. The messages every
    cooperative plane shares live here too: the info channel's envelope
    and the remote fetch. So do the two daemon shapes, {!every} and
    {!serve}, that every daemon but the request thread runs in. *)

(** Counter names. *)
module K = struct
  let requests = "requests"
  let file_fetches = "file_fetches"
  let cgi_execs = "cgi_execs"
  let hit_local = "hit_local"
  let hit_remote = "hit_remote"
  let uncacheable = "uncacheable"
  let false_hit = "false_hit"
  let false_miss_concurrent = "false_miss_concurrent"
  let false_miss_duplicate = "false_miss_duplicate"
  let inserts = "inserts"
  let below_threshold = "below_threshold"
  let broadcast_insert = "broadcast_insert"
  let broadcast_delete = "broadcast_delete"
  let info_applied = "info_applied"
  let purged = "purged"
  let not_found = "not_found"
  let cgi_failures = "cgi_failures"
  let dir_stale_self = "dir_stale_self"
  let invalidations = "invalidations"
  let acks_sent = "acks_sent"
  let fetch_timeouts = "fetch_timeouts"
  let fetch_retries = "fetch_retries"
  let crashes = "crashes"
  let restarts = "restarts"
  let rejected_down = "rejected_down"
  let dir_suspect_purged = "dir_suspect_purged"

  (** [partitions_healed] counts partition heal instants observed (on node
      0); [anti_entropy_rounds]/[anti_entropy_pulled] count digest-exchange
      rounds initiated and entries pulled by the anti-entropy daemon;
      [router_retries] counts client requests that a router re-submitted to
      a survivor after a [503] from a down node. *)
  let partitions_healed = "partitions_healed"
  let anti_entropy_rounds = "anti_entropy_rounds"
  let anti_entropy_pulled = "anti_entropy_pulled"
  let router_retries = "router_retries"

  (** Update batching: [batches_sent] counts [Replicated_plane]'s batch
      envelopes transmitted (only buffers of two or more are wrapped),
      [batch_updates] the updates those envelopes carried, and
      [batch_coalesced] buffered updates overwritten by a newer update to
      the same key before transmission. [info_msgs]/[info_bytes] count
      directory-update unicasts actually sent (envelopes, not updates) and
      their wire bytes — the quantity batching is meant to shrink. *)
  let batches_sent = "batches_sent"
  let batch_updates = "batch_updates"
  let batch_coalesced = "batch_coalesced"
  let info_msgs = "info_msgs"
  let info_bytes = "info_bytes"

  (** Hint index: [hint_probes_saved] is table probes skipped thanks to
      the key→owner hints, [hint_false] lookups where every hinted probe
      missed and the full-scan fallback ran. *)
  let hint_probes_saved = "hint_probes_saved"
  let hint_false = "hint_false"

  (** Sharded metadata plane. Directory lookups split by how they were
      answered: [shard_local_lookups] at the key's own home without a
      message, [shard_replica_hits] from a hotspot-replicated copy, and
      [shard_fwd_lookups] forwarded to the home over the network.
      [dir_lookup_msgs]/[dir_lookup_bytes] count the forwarded round
      trip's wire traffic — requests at the requester, replies at the
      home — so [info_msgs + dir_lookup_msgs] is the plane's total
      metadata message count in either mode; [dir_lookup_timeouts] are
      forwards abandoned because the home was down or partitioned away.
      [lcache_*] are the lookup cache's outcomes, folded in after the run
      by [Server.record_plane_stats]. *)
  let shard_local_lookups = "shard_local_lookups"
  let shard_fwd_lookups = "shard_fwd_lookups"
  let shard_replica_hits = "shard_replica_hits"
  let dir_lookup_msgs = "dir_lookup_msgs"
  let dir_lookup_bytes = "dir_lookup_bytes"
  let dir_lookup_timeouts = "dir_lookup_timeouts"
  let lcache_pos_hits = "lcache_pos_hits"
  let lcache_neg_hits = "lcache_neg_hits"
  let lcache_evictions = "lcache_evictions"

  (** Hotspot replication: [hotspot_promotions]/[hotspot_demotions] are
      decisions taken at shard homes, [hotspot_replica_pushes] the
      [Promote] unicasts those decisions sent to ring successors. *)
  let hotspot_promotions = "hotspot_promotions"
  let hotspot_demotions = "hotspot_demotions"
  let hotspot_replica_pushes = "hotspot_replica_pushes"

  (** Shard handoff after a crash, restart or partition heal:
      [shard_handoff_reannounced] entries re-announced to their acting
      homes, [shard_pruned] entries dropped because the ring moved their
      home elsewhere. *)
  let shard_handoff_reannounced = "shard_handoff_reannounced"
  let shard_pruned = "shard_pruned"

  (** Adaptive freshness / proactive refresh: [refreshes] counts entries
      re-executed and re-inserted by the refresh daemon;
      [refresh_saved_ms] accumulates, in integer milliseconds, the
      refresh execution time that displaced a client-visible recompute
      (credited on the first hit after each refresh, at the owner);
      [stale_served] counts adaptive-mode hits whose content age exceeded
      the configured [default_ttl] anchor — results a fixed-TTL cache
      would have refused to serve. *)
  let refreshes = "refreshes"
  let refresh_saved_ms = "refresh_saved_ms"
  let stale_served = "stale_served"
end

(* ------------------------------------------------------------------ *)
(* Messages every cooperative plane shares (paper §4.1-4.2). Each plane
   declares its own updates and requests beside its daemons. *)

(** What actually travels on the info channel: one update of the
    metadata plane's own type, so a receiver can only be handed updates
    its plane sends. Under the paper's weak protocol [ack] is [None]
    (fire-and-forget); the synchronous-consistency ablation sets it to
    [(sender, mailbox)], and the receiver acknowledges over the network
    after applying the update, letting the sender block until every
    replica is consistent — the "variation of a two-phase commit" §4.2
    rejects as too expensive. *)
type 'u info_envelope = {
  info : 'u;
  ack : (int * unit Sim.Mailbox.t) option;  (** (sender endpoint, inbox) *)
  span : int;
      (** originating span id for causal tracing ([0] = untraced); carries
          no simulated bytes — it models nothing the 1998 protocol sent *)
}

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

(** Approximate wire sizes, used to charge the network model: key text
    plus a fixed [envelope_bytes]. The planes price their own messages
    the same way. *)
let envelope_bytes = 64

let fetch_request_bytes { key; _ } = envelope_bytes + String.length key

(** [Hit] includes the cached body, by its {!Http.Body.length}. *)
let fetch_reply_bytes = function
  | Hit { meta; body } ->
      envelope_bytes + String.length meta.Cache.Meta.key + Http.Body.length body
  | Miss { key } -> envelope_bytes + String.length key

(** A request waiting in a node's listen mailbox. *)
type env = {
  req : Http.Request.t;
  client : int;
  resume : Http.Response.t Sim.Engine.resumer;
  span : int;  (* submitting request's span id; 0 when tracing is off *)
}

(** One server node's plane-independent state. *)
type t = {
  id : int;
  cpu : Sim.Cpu.t;
  disk : Sim.Disk.t;
  rng : Sim.Rng.t;
  refresh_rng : Sim.Rng.t;
      (* proactive-refresh demand/failure draws; own salted stream so the
         daemon never perturbs the request-path draws from [rng] *)
  listen : env Sim.Mailbox.t;
  data_mb : fetch_request Sim.Mailbox.t;  (* consumed by the data server *)
  store : Cache.Store.t;
  counters : Metrics.Counter.t;
  fresh : Cache.Freshness.t option;
      (* per-key adaptive TTL controller; [Some] iff Config.freshness is
         Adaptive *)
  refreshed : (string, float) Hashtbl.t;
      (* key -> exec_time of its latest proactive refresh, popped by the
         first subsequent hit to credit refresh_saved_ms *)
  in_flight : (string, int) Hashtbl.t;  (* CGI keys being executed *)
  mutable active : int;  (* requests currently being handled *)
  mutable up : bool;  (* false while crashed (fault injection) *)
  mutable stop : bool;
}

(** The cluster a plane runs in: [nodes.(i)] is node [i]. *)
type ctx = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  cfg : Config.t;
  nodes : t array;
  tracer : Metrics.Trace.t option;
}

let now () = Sim.Engine.now ()
let incr nd k = Metrics.Counter.incr nd.counters k

(* ------------------------------------------------------------------ *)
(* Tracing helpers.

   The current span id rides in the engine's fiber-local slot, so it
   survives blocking operations and is inherited by spawned children.
   With tracing off every helper is a direct call through to the wrapped
   work — no clock reads, no effects, no allocation — which is what keeps
   untraced runs byte-identical. *)

(* The span to stamp into an outgoing message: the caller's current span.
   Guarded so the trace-off path performs no effect at all. *)
let span_of x =
  match x.tracer with None -> 0 | Some _ -> Sim.Engine.get_local ()

(* Run [f] inside a span on [nd]'s track. The parent defaults to the
   caller's fiber-local span; the local is set to the new span for the
   duration so nested spans and outgoing messages pick it up. [attrs] is
   a thunk, called only on the traced branch, so an untraced request
   never builds the list (nor the strings in it). *)
let with_span ?parent ?attrs ?async x nd name f =
  match x.tracer with
  | None -> f ()
  | Some tr ->
      let saved = Sim.Engine.get_local () in
      let parent = match parent with Some p -> p | None -> saved in
      let attrs = Option.map (fun build -> build ()) attrs in
      let id =
        Metrics.Trace.begin_span tr ?attrs ?async ~parent ~track:nd.id ~name
          ()
      in
      Sim.Engine.set_local id;
      let finish () =
        Metrics.Trace.end_span tr id;
        Sim.Engine.set_local saved
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* ------------------------------------------------------------------ *)
(* Daemon shapes. Every daemon but the request thread (which answers 503
   while its node is down) is one of these two loops; each body keeps its
   own guard. *)

(** [every ~stopped ~period f] waits [period] simulated seconds and runs
    [f], again and again, until [stopped ()] holds before a wait. A body
    that is asleep when its flag rises still runs once more. *)
let every ~stopped ~period f =
  let rec loop () =
    if not (stopped ()) then begin
      Sim.Engine.delay period;
      f ();
      loop ()
    end
  in
  loop ()

(** [serve nd mb f] hands every message [mb] receives to [f], forever,
    except while [nd] is down: a message in flight across the crash
    instant is lost. *)
let serve nd mb f =
  let rec loop () =
    let msg = Sim.Mailbox.recv mb in
    if nd.up then f msg;
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Cacher-module receivers shared by the cooperative planes *)

(* The info receiver: apply each received directory update, charging the
   apply cost per update (batching amortizes the envelope on the wire,
   not the directory work at the receiver), then acknowledge it when the
   sender waits for acknowledgements (strong consistency). *)
let info_receiver x nd inbox ~updates ~apply =
  let cost = Config.info_apply_cost in
  let handle envelope =
    Sim.Cpu.consume nd.cpu (float_of_int (updates envelope.info) *. cost);
    apply envelope.info;
    match envelope.ack with
    | Some (sender, ack) ->
        incr nd K.acks_sent;
        Sim.Net.send x.net ~src:nd.id ~dst:sender ~bytes:32 ack ()
    | None -> ()
  in
  serve nd inbox (fun (envelope : _ info_envelope) ->
      (* Causally a child of the originating request, but applied off its
         critical path — hence async. *)
      with_span x nd "info.apply" ~parent:envelope.span ~async:true (fun () ->
          handle envelope))

(* The data server: answer remote fetches from this node's store. A
   crashed owner answers nothing, so the requester's fetch times out. *)
let data_server x nd =
  serve nd nd.data_mb (fun (fetch : fetch_request) ->
      (* One thread per fetch, as in §4.1. Async: the serve runs on the
         owner concurrently with the requester's wait, so its time is
         already inside the requester's fetch.remote span. *)
      Sim.Engine.spawn_child (fun () ->
          with_span x nd "fetch.serve" ~parent:fetch.span ~async:true
          @@ fun () ->
          Sim.Cpu.consume nd.cpu Config.data_server_cost;
          let reply_msg =
            match Cache.Store.lookup nd.store fetch.key with
            | Some { Cache.Store.meta; body } ->
                Sim.Disk.read nd.disk ~bytes:meta.Cache.Meta.size ~cached:true;
                Hit { meta; body }
            | None -> Miss { key = fetch.key }
          in
          Sim.Net.send x.net ~src:nd.id ~dst:fetch.requester
            ~bytes:(fetch_reply_bytes reply_msg) fetch.reply reply_msg))

(** [fetch net ~src ~owner data_mb req] sends a data-fetch request from
    node [src] to node [owner], whose data server reads [data_mb]. *)
let fetch net ~src ~owner data_mb req =
  Sim.Net.send net ~src ~dst:owner ~bytes:(fetch_request_bytes req) data_mb req

(* The attempts of [fetch_sync], from attempt [n] on: a top-level
   function with explicit arguments, like [Directory.locked]'s bodies, so
   a fetch allocates no closure. *)
let rec fetch_attempts net ~src ~owner data_mb ~span ~retries key n timeout =
  (* A fresh reply mailbox per attempt: a reply to an abandoned attempt
     must not satisfy a later one out of order. *)
  let reply = Sim.Mailbox.create () in
  fetch net ~src ~owner data_mb { key; requester = src; reply; span };
  match Sim.Mailbox.recv_timeout reply ~timeout with
  | Some _ as got -> (got, n)
  | None ->
      if n < retries then
        fetch_attempts net ~src ~owner data_mb ~span ~retries key (n + 1)
          (timeout *. Config.fetch_backoff)
      else (None, n)

(** [fetch_sync ~span net ~src ~owner data_mb ~timeout ~retries key] is
    the blocking data-server round-trip with bounded retry: it sends a
    fetch request and waits up to [timeout] simulated seconds for the
    reply; on timeout it retries with the timeout multiplied by
    {!Config.fetch_backoff} (exponential backoff), up to [retries]
    additional attempts. Returns [(reply, n)] where [n] is the number of
    retries actually performed; [reply] is [None] when every attempt
    timed out — the caller's cue to fall back to local CGI execution (the
    paper's false-hit path, §4.2, now also reachable through message
    loss or a crashed owner). [~timeout:infinity] waits for the one reply, as a
    cluster without a fetch timeout does.

    Requires [timeout > 0] and [retries >= 0]. Each attempt uses a fresh
    reply mailbox, so a straggling reply to an abandoned attempt is
    ignored rather than mistaken for the current one. Must run in a
    process. [span] ([0] = untraced) is stamped into each attempt's
    request; it is not optional, so a fetch allocates no [Some span]. *)
let fetch_sync ~span net ~src ~owner data_mb ~timeout ~retries key =
  if timeout <= 0. then invalid_arg "Node.fetch_sync: timeout must be > 0";
  if retries < 0 then invalid_arg "Node.fetch_sync: retries must be >= 0";
  fetch_attempts net ~src ~owner data_mb ~span ~retries key 0 timeout
