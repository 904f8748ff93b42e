(** What a server node is apart from its metadata plane, and the context
    the planes run in. {!Server} builds both and owns the request path;
    the plane modules ({!Plane.S}) read and charge the same nodes,
    counters and spans, and start the receivers below. *)

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

  (** Update batching: [batches_sent] counts [Msg.Batch] envelopes
      transmitted (only buffers of two or more updates are wrapped),
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
  endpoint : Cluster.Endpoint.t;
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

(** The cluster a plane runs in: [nodes.(i)] and [endpoints.(i)] are
    node [i]'s. *)
type ctx = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  cfg : Config.t;
  nodes : t array;
  endpoints : Cluster.Endpoint.t array;
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
(* Cacher-module receivers shared by the cooperative planes *)

(* The info receiver: apply each received directory update, charging the
   apply cost per update (batching amortizes the envelope on the wire,
   not the directory work at the receiver), then acknowledge it when the
   sender waits for acknowledgements (strong consistency). *)
let info_receiver x nd inbox ~updates ~apply =
  let cost = Config.info_apply_cost in
  let handle (envelope : _ Cluster.Msg.info_envelope) =
    Sim.Cpu.consume nd.cpu
      (float_of_int (updates envelope.Cluster.Msg.info) *. cost);
    apply envelope.Cluster.Msg.info;
    match envelope.Cluster.Msg.ack with
    | Some (sender, ack) ->
        incr nd K.acks_sent;
        Sim.Net.send x.net ~src:nd.id ~dst:sender ~bytes:32 ack ()
    | None -> ()
  in
  let rec loop () =
    let (envelope : _ Cluster.Msg.info_envelope) = Sim.Mailbox.recv inbox in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
      (* Causally a child of the originating request, but applied off its
         critical path — hence async. *)
      with_span x nd "info.apply" ~parent:envelope.Cluster.Msg.span
        ~async:true (fun () -> handle envelope);
      loop ()
    end
  in
  loop ()

(* The data server: answer remote fetches from this node's store. *)
let data_server x nd =
  let rec loop () =
    let fetch = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.data_mb in
    if not nd.up then loop ()  (* crashed owner: requester's fetch times out *)
    else begin
    (* One thread per fetch, as in §4.1. Async: the serve runs on the
       owner concurrently with the requester's wait, so its time is
       already inside the requester's fetch.remote span. *)
    Sim.Engine.spawn_child (fun () ->
        with_span x nd "fetch.serve" ~parent:fetch.Cluster.Msg.span
          ~async:true
        @@ fun () ->
        Sim.Cpu.consume nd.cpu Config.data_server_cost;
        let reply_msg =
          match Cache.Store.lookup nd.store fetch.Cluster.Msg.key with
          | Some entry ->
              Sim.Disk.read nd.disk
                ~bytes:entry.Cache.Store.meta.Cache.Meta.size ~cached:true;
              Cluster.Msg.Hit
                { meta = entry.Cache.Store.meta; body = entry.Cache.Store.body }
          | None -> Cluster.Msg.Miss { key = fetch.Cluster.Msg.key }
        in
        Sim.Net.send x.net ~src:nd.id ~dst:fetch.Cluster.Msg.requester
          ~bytes:(Cluster.Msg.fetch_reply_bytes reply_msg)
          fetch.Cluster.Msg.reply reply_msg);
    loop ()
    end
  in
  loop ()
