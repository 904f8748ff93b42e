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
  let partitions_healed = "partitions_healed"
  let anti_entropy_rounds = "anti_entropy_rounds"
  let anti_entropy_pulled = "anti_entropy_pulled"
  let router_retries = "router_retries"

  (* Batching layer: batches_sent counts Batch envelopes transmitted (only
     buffers of >= 2 updates are wrapped), batch_updates the updates they
     carried, batch_coalesced buffered updates overwritten by a newer
     update to the same key before transmission. info_msgs/info_bytes
     count actual directory-update unicasts (envelopes, not updates) and
     their wire bytes — the quantity batching is meant to shrink. *)
  let batches_sent = "batches_sent"
  let batch_updates = "batch_updates"
  let batch_coalesced = "batch_coalesced"
  let info_msgs = "info_msgs"
  let info_bytes = "info_bytes"

  (* Hint index: probes skipped thanks to hints, and lookups where every
     hinted probe missed (the false-hint fallback ran). *)
  let hint_probes_saved = "hint_probes_saved"
  let hint_false = "hint_false"

  (* Sharded metadata plane. Lookups split by how they were answered:
     at the key's home without a message, from a hotspot replica copy,
     or forwarded across the network. dir_lookup_msgs/bytes count the
     forwarded round trip's wire traffic (requests at the requester,
     replies at the home) so that info_msgs + dir_lookup_msgs is the
     plane's total metadata message count in either mode. Lookup-cache
     outcomes are folded in after the run (record_shard_stats), like
     hint stats. *)
  let shard_local_lookups = "shard_local_lookups"
  let shard_fwd_lookups = "shard_fwd_lookups"
  let shard_replica_hits = "shard_replica_hits"
  let dir_lookup_msgs = "dir_lookup_msgs"
  let dir_lookup_bytes = "dir_lookup_bytes"
  let dir_lookup_timeouts = "dir_lookup_timeouts"
  let lcache_pos_hits = "lcache_pos_hits"
  let lcache_neg_hits = "lcache_neg_hits"
  let lcache_evictions = "lcache_evictions"

  (* Hotspot replication: promotions/demotions decided at shard homes,
     replica_pushes the Promote unicasts those decisions sent. *)
  let hotspot_promotions = "hotspot_promotions"
  let hotspot_demotions = "hotspot_demotions"
  let hotspot_replica_pushes = "hotspot_replica_pushes"

  (* Shard handoff after a liveness change: entries re-announced to their
     new acting homes, and entries pruned because the ring moved them
     elsewhere. *)
  let shard_handoff_reannounced = "shard_handoff_reannounced"
  let shard_pruned = "shard_pruned"

  (* Freshness plane: refreshes counts proactive re-executions performed
     by the refresh daemon; refresh_saved_ms sums (in milliseconds) the
     execution time of refreshes that went on to serve at least one
     subsequent hit — the client-visible recomputation they displaced.
     stale_served counts hits (under the adaptive controller) whose age
     exceeded the fixed default_ttl anchor — the staleness the adaptive
     TTLs admitted that the fixed baseline would not have. *)
  let refreshes = "refreshes"
  let refresh_saved_ms = "refresh_saved_ms"
  let stale_served = "stale_served"
end

module MP = Cache.Metadata_plane

type env = {
  req : Http.Request.t;
  client : int;
  resume : Http.Response.t Sim.Engine.resumer;
  span : int;  (* submitting request's span id; 0 when tracing is off *)
}

(* Cluster-wide contention histograms, allocated only when tracing. The
   observers installed on the primitives merely record into these — they
   never delay, suspend or schedule, so enabling them cannot change any
   simulated quantity. *)
type waits = {
  dir_rd_wait : Metrics.Histogram.t;
  dir_wr_wait : Metrics.Histogram.t;
  dir_queue : Metrics.Histogram.t;
  listen_wait : Metrics.Histogram.t;
  listen_depth : Metrics.Histogram.t;
  cpu_wait : Metrics.Histogram.t;
  cpu_queue : Metrics.Histogram.t;
  disk_wait : Metrics.Histogram.t;
}

type t = {
  id : int;
  cpu : Sim.Cpu.t;
  disk : Sim.Disk.t;
  rng : Sim.Rng.t;
  ae_rng : Sim.Rng.t;  (* anti-entropy peer choice; own salted stream *)
  refresh_rng : Sim.Rng.t;
      (* proactive-refresh demand/failure draws; own salted stream so the
         daemon never perturbs the request-path draws from [rng] *)
  listen : env Sim.Mailbox.t;
  endpoint : Cluster.Endpoint.t;
  store : Cache.Store.t;
  plane : MP.t;
      (* the node's metadata-plane state: a full directory replica
         (Config.Replicated) or this node's shard partition plus lookup
         cache and hotspot tracker (Config.Sharded) *)
  counters : Metrics.Counter.t;
  fresh : Cache.Freshness.t option;
      (* per-key adaptive TTL controller; [Some] iff Config.freshness is
         Adaptive *)
  refreshed : (string, float) Hashtbl.t;
      (* key -> exec_time of its latest proactive refresh, popped by the
         first subsequent hit to credit refresh_saved_ms *)
  in_flight : (string, int) Hashtbl.t;  (* CGI keys being executed *)
  mutable batch_buf : Cluster.Msg.info list;
      (* outbound directory updates awaiting a batched flush, newest
         first; empty whenever Config.batch_max <= 1 *)
  mutable active : int;  (* requests currently being handled *)
  mutable up : bool;  (* false while crashed (fault injection) *)
  mutable stop : bool;
}

(* The flight recorder, allocated only when [Config.telemetry_interval]
   is set. Its probes are closures over the cluster's live state (node
   counters, engine internals, the host-side histograms), read together
   by one sampler daemon on the telemetry cadence. The response
   accumulator pair is the cumulative (count, sum) the [response] probe
   diffs per window; [t_stop] ends the sampler like a node's daemons. *)
type telemetry = {
  t_registry : Metrics.Registry.t;
  t_health : Metrics.Health.t;
  mutable t_resp_n : float;
  mutable t_resp_sum : float;
  mutable t_stop : bool;
}

type cluster = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  cfg : Config.t;
  registry : Cgi.Registry.t;
  nodes : t array;
  endpoints : Cluster.Endpoint.t array;
  fault : Sim.Fault.t option;
  mutable fault_handles : Sim.Engine.handle list;
      (* pending crash/restart events, cancelled by [stop] *)
  tracer : Metrics.Trace.t option;
  waits : waits option;
  hit_latency : Metrics.Sample.t;
      (* cooperative-hit service times, directory lookup through response
         sent; recorded host-side only, so collecting it perturbs nothing *)
  fwd_wait : Metrics.Histogram.t;
      (* sharded plane: forwarded-lookup round-trip waits, timeouts
         included; host-side only, like hit_latency *)
  staleness : Metrics.Histogram.t;
      (* age of the served result at every cache hit (local and remote),
         seconds; host-side only, like hit_latency *)
  telemetry : telemetry option;
}

let engine c = c.engine
let net c = c.net
let config c = c.cfg
let n_nodes c = Array.length c.nodes

let node c i =
  if i < 0 || i >= Array.length c.nodes then invalid_arg "Server.node: range";
  c.nodes.(i)

let sharded c = c.cfg.Config.dir_mode = Config.Sharded

(* The plane unpacked for mode-specific paths. Each is called only on the
   matching mode's code path, so a [Invalid_argument] here is a server
   bug, not a configuration error. *)
let rdir nd =
  match MP.directory nd.plane with
  | Some d -> d
  | None -> invalid_arg "Server: replicated-plane path on a sharded node"

let shard_state nd =
  match MP.shard nd.plane with
  | Some s -> s
  | None -> invalid_arg "Server: sharded-plane path on a replicated node"

let node_counters nd = nd.counters
let node_store nd = nd.store
let node_directory nd = rdir nd
let node_plane nd = nd.plane
let node_cpu nd = nd.cpu
let node_info_mailbox nd = nd.endpoint.Cluster.Endpoint.info_mb

let merged_counters c =
  Array.fold_left
    (fun acc nd -> Metrics.Counter.merge acc nd.counters)
    (Metrics.Counter.create ()) c.nodes

let total_hits c =
  let m = merged_counters c in
  Metrics.Counter.get m K.hit_local + Metrics.Counter.get m K.hit_remote

(* The fault plan draws from its own generator (derived from the seed, not
   split off [root]) so that attaching a plan leaves every other random
   stream — and therefore every fault-free aspect of the run — unchanged. *)
let fault_seed_salt = 0x5DEECE66

(* Same isolation for anti-entropy peer choice: its generators are split
   off a second salted root (never off [root]), so enabling the daemon
   does not perturb workload, CPU or cache streams. *)
let anti_entropy_seed_salt = 0x0A17E57

(* And for the proactive-refresh daemon's demand/failure draws: a third
   salted root, so turning the daemon on re-executes entries without
   shifting any request-path random stream. *)
let refresh_seed_salt = 0x00F5E54A

let create_cluster ?client_extra_latency engine cfg ~registry
    ~n_client_endpoints =
  Config.validate cfg;
  let module H = Metrics.Histogram in
  let tracer =
    if cfg.Config.trace then
      Some
        (Metrics.Trace.create
           ~clock:(fun () -> Sim.Engine.current_time engine)
           ())
    else None
  in
  let waits =
    if cfg.Config.trace then
      Some
        {
          dir_rd_wait = H.create ();
          dir_wr_wait = H.create ();
          dir_queue = H.create ~bounds:H.depth_bounds ();
          listen_wait = H.create ();
          listen_depth = H.create ~bounds:H.depth_bounds ();
          cpu_wait = H.create ();
          cpu_queue = H.create ~bounds:H.depth_bounds ();
          disk_wait = H.create ();
        }
    else None
  in
  let cpu_observe =
    Option.map
      (fun w ~wait ~depth ->
        H.add w.cpu_wait wait;
        H.add w.cpu_queue (float_of_int depth))
      waits
  in
  let disk_observe =
    Option.map (fun w ~wait ~depth:_ -> H.add w.disk_wait wait) waits
  in
  let lock_observe =
    Option.map
      (fun w ~kind ~wait ~depth ->
        (match kind with
        | `Read -> H.add w.dir_rd_wait wait
        | `Write -> H.add w.dir_wr_wait wait);
        H.add w.dir_queue (float_of_int depth))
      waits
  in
  let listen_on_wait =
    Option.map (fun w dt -> H.add w.listen_wait dt) waits
  in
  let listen_on_depth =
    Option.map (fun w d -> H.add w.listen_depth (float_of_int d)) waits
  in
  let root = Sim.Rng.create cfg.Config.seed in
  let ae_root = Sim.Rng.create (cfg.Config.seed lxor anti_entropy_seed_salt) in
  let refresh_root =
    Sim.Rng.create (cfg.Config.seed lxor refresh_seed_salt)
  in
  let fault =
    Option.map
      (fun profile ->
        Sim.Fault.create profile
          ~rng:(Sim.Rng.create (cfg.Config.seed lxor fault_seed_salt))
          ~nodes:cfg.Config.n_nodes)
      cfg.Config.fault
  in
  let ring =
    (* One shared immutable ring: every node computes the same key→home
       mapping, and liveness is supplied per query, so crashes never
       rebuild it. *)
    if cfg.Config.dir_mode = Config.Sharded then
      Some
        (Cache.Ring.create ~nodes:cfg.Config.n_nodes
           ~vnodes:cfg.Config.shard_vnodes)
    else None
  in
  (* Geo-tiered clients: extra one-way latency on client endpoints only
     (endpoint n_nodes + s is client stream s); the cluster LAN keeps the
     base latency. Absent, the network path is byte-identical to before. *)
  let extra_latency =
    Option.map
      (fun arr ep ->
        let s = ep - cfg.Config.n_nodes in
        if s >= 0 && s < Array.length arr then arr.(s) else 0.)
      client_extra_latency
  in
  let net =
    Sim.Net.create ~latency:cfg.Config.net_latency ?extra_latency
      ~bandwidth:cfg.Config.net_bandwidth ~loss:cfg.Config.net_loss
      ~rng:(Sim.Rng.split root) ?fault engine
      ~n_endpoints:(cfg.Config.n_nodes + n_client_endpoints)
  in
  let nodes =
    Array.init cfg.Config.n_nodes (fun id ->
        let rng = Sim.Rng.split root in
        let clock () = Sim.Engine.current_time engine in
        let cpu =
          Sim.Cpu.create ~speed:cfg.Config.cpu_speed ?observe:cpu_observe
            engine ~cores:cfg.Config.cores_per_node
        in
        {
          id;
          cpu;
          disk = Sim.Disk.create ?observe:disk_observe engine;
          rng;
          ae_rng = Sim.Rng.split ae_root;
          refresh_rng = Sim.Rng.split refresh_root;
          listen =
            Sim.Mailbox.create ?on_wait:listen_on_wait
              ?on_depth:listen_on_depth ();
          endpoint = Cluster.Endpoint.make ~node:id;
          store =
            Cache.Store.create ~capacity:cfg.Config.cache_capacity
              ~policy:cfg.Config.policy ~clock ~rng:(Sim.Rng.split root) ();
          plane =
            (match ring with
            | None ->
                (* Directory lock and scan work burns this node's CPU, so
                   it contends with request processing. *)
                MP.replicated
                  (Cache.Directory.create
                     ~granularity:cfg.Config.dir_granularity
                     ~lock_overhead:cfg.Config.dir_lock_overhead
                     ~scan_cost:cfg.Config.dir_scan_cost
                     ~charge:(fun s -> Sim.Cpu.consume cpu s)
                     ~hints:cfg.Config.dir_hints ?lock_observe
                     ~nodes:cfg.Config.n_nodes ())
            | Some ring ->
                (* Same lock-cost model and CPU charging as the replicated
                   replica, so the dirmode ablation compares the planes,
                   not their cost constants. *)
                let table =
                  Cache.Shard_table.create
                    ~lock_overhead:cfg.Config.dir_lock_overhead
                    ~charge:(fun s -> Sim.Cpu.consume cpu s)
                    ?lock_observe ()
                in
                let lookup_cache =
                  if cfg.Config.shard_lookup_cache > 0 then
                    Some
                      (Cache.Lookup_cache.create
                         ~capacity:cfg.Config.shard_lookup_cache
                         ~pos_ttl:cfg.Config.shard_pos_ttl
                         ~neg_ttl:cfg.Config.shard_neg_ttl)
                  else None
                in
                let hotspot =
                  if cfg.Config.hotspot_threshold > 0. then
                    Some
                      (Cache.Hotspot.create
                         ~threshold:cfg.Config.hotspot_threshold
                         ~window:cfg.Config.hotspot_window)
                  else None
                in
                MP.sharded ~ring ~table ?lookup_cache ?hotspot ());
          counters = Metrics.Counter.create ();
          fresh =
            (match cfg.Config.freshness with
            | Cache.Freshness.Fixed -> None
            | Cache.Freshness.Adaptive ->
                Some
                  (Cache.Freshness.create
                     ~min_ttl:cfg.Config.freshness_min_ttl
                     ~max_ttl:cfg.Config.freshness_max_ttl
                     ~penalty:cfg.Config.freshness_penalty
                     ~window:cfg.Config.freshness_window ()));
          refreshed = Hashtbl.create 64;
          in_flight = Hashtbl.create 64;
          batch_buf = [];
          active = 0;
          up = true;
          stop = false;
        })
  in
  let endpoints = Array.map (fun nd -> nd.endpoint) nodes in
  (match tracer with
  | None -> ()
  | Some tr ->
      Array.iter
        (fun nd ->
          Metrics.Trace.set_track_name tr nd.id
            (Printf.sprintf "node %d" nd.id))
        nodes;
      Metrics.Trace.set_track_name tr cfg.Config.n_nodes "clients");
  let hit_latency = Metrics.Sample.create () in
  let fwd_wait = Metrics.Histogram.create () in
  let staleness =
    Metrics.Histogram.create ~bounds:Metrics.Histogram.age_bounds ()
  in
  (* The flight recorder's probe set. Every probe is a pure read of
     already-maintained state — counters, histogram totals, engine
     internals — so sampling records values without perturbing any
     simulated quantity. (The sampler daemon itself does add engine
     events, which is why the plane is opt-in; see Config.) *)
  let telemetry =
    match cfg.Config.telemetry_interval with
    | None -> None
    | Some interval ->
        let reg = Metrics.Registry.create ~interval () in
        let health =
          Metrics.Health.create
            ~config:
              {
                Metrics.Health.default_config with
                slo_target = cfg.Config.slo_target;
                slo_objective = cfg.Config.slo_objective;
              }
            ~interval ()
        in
        let tel =
          {
            t_registry = reg;
            t_health = health;
            t_resp_n = 0.;
            t_resp_sum = 0.;
            t_stop = false;
          }
        in
        (* [Counter.get] reads without creating entries, so probing a
           counter that never fires leaves the counter set untouched. *)
        let sum key () =
          float_of_int
            (Array.fold_left
               (fun acc nd -> acc + Metrics.Counter.get nd.counters key)
               0 nodes)
        in
        let module R = Metrics.Registry in
        R.histogram reg "hit.ratio" (fun () ->
            (sum K.requests (), sum K.hit_local () +. sum K.hit_remote ()));
        R.histogram reg "response" (fun () -> (tel.t_resp_n, tel.t_resp_sum));
        R.counter reg "info.rate" (sum K.info_msgs);
        R.counter reg "batch.rate" (sum K.batches_sent);
        R.counter reg "refresh.rate" (sum K.refreshes);
        R.counter reg "stale.rate" (sum K.stale_served);
        R.gauge reg "dir.entries" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc nd -> acc + MP.entries nd.plane)
                 0 nodes));
        R.gauge reg "listen.depth" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc nd -> acc + Sim.Mailbox.length nd.listen)
                 0 nodes));
        R.gauge reg "proto.backlog" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc nd -> acc + Cluster.Endpoint.backlog nd.endpoint)
                 0 nodes));
        R.histogram reg "fwd.wait" (fun () ->
            ( float_of_int (Metrics.Histogram.count fwd_wait),
              Metrics.Histogram.total fwd_wait ));
        R.histogram reg "staleness" (fun () ->
            ( float_of_int (Metrics.Histogram.count staleness),
              Metrics.Histogram.total staleness ));
        (* Engine self-telemetry: raw heap occupancy vs capacity, the
           lazy-cancellation census whose growth drives compaction, the
           event execution rate, and the allocation rate of the host
           program itself. *)
        R.gauge reg "engine.heap" (fun () ->
            float_of_int (Sim.Engine.heap_depth engine));
        R.gauge reg "engine.heap_cap" (fun () ->
            float_of_int (Sim.Engine.heap_capacity engine));
        R.gauge reg "engine.cancelled" (fun () ->
            float_of_int (Sim.Engine.cancelled_events engine));
        R.counter reg "engine.events.rate" (fun () ->
            float_of_int (Sim.Engine.events_processed engine));
        R.counter reg "gc.minor_words.rate" (fun () -> Gc.minor_words ());
        Array.iter
          (fun nd ->
            let pfx = Printf.sprintf "n%d." nd.id in
            (* busy CPU-seconds are cumulative, so the per-second rate of
               this counter is the node's utilisation over the window *)
            R.counter reg (pfx ^ "util") (fun () -> Sim.Cpu.busy_time nd.cpu);
            R.gauge reg (pfx ^ "active") (fun () -> float_of_int nd.active);
            R.counter reg
              (pfx ^ "hits.rate")
              (fun () ->
                float_of_int
                  (Metrics.Counter.get nd.counters K.hit_local
                  + Metrics.Counter.get nd.counters K.hit_remote)))
          nodes;
        Some tel
  in
  {
    engine;
    net;
    cfg;
    registry;
    nodes;
    endpoints;
    fault;
    fault_handles = [];
    tracer;
    waits;
    hit_latency;
    fwd_wait;
    staleness;
    telemetry;
  }

(* ------------------------------------------------------------------ *)
(* Tracing helpers.

   The current span id rides in the engine's fiber-local slot, so it
   survives blocking operations and is inherited by spawned children.
   With tracing off every helper is a direct call through to the wrapped
   work — no clock reads, no effects, no allocation — which is what keeps
   untraced runs byte-identical. *)

let tracer c = c.tracer

let wait_histograms c =
  match c.waits with
  | None -> []
  | Some w ->
      [
        ("dir.rd_wait", w.dir_rd_wait);
        ("dir.wr_wait", w.dir_wr_wait);
        ("dir.queue", w.dir_queue);
        ("listen.wait", w.listen_wait);
        ("listen.depth", w.listen_depth);
        ("cpu.wait", w.cpu_wait);
        ("cpu.queue", w.cpu_queue);
        ("disk.wait", w.disk_wait);
      ]

(* The span to stamp into an outgoing message: the caller's current span.
   Guarded so the trace-off path performs no effect at all. *)
let span_of c =
  match c.tracer with None -> 0 | Some _ -> Sim.Engine.get_local ()

(* Run [f] inside a span on [nd]'s track. The parent defaults to the
   caller's fiber-local span; the local is set to the new span for the
   duration so nested spans and outgoing messages pick it up. [attrs] is
   a thunk, called only on the traced branch, so an untraced request
   never builds the list (nor the strings in it). *)
let with_span ?parent ?attrs ?async c nd name f =
  match c.tracer with
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

(* Point events (crashes, heals); safe in engine-event context — the
   tracer's clock is [Engine.current_time], not the process-only [now]. *)
let emit_instant ?attrs c ~track name =
  match c.tracer with
  | None -> ()
  | Some tr -> Metrics.Trace.instant tr ?attrs ~track ~name ()

(* ------------------------------------------------------------------ *)
(* Response helpers *)

(* Static files are served with an empty in-memory body but a declared
   Content-Length; the transfer charge uses the declared size. *)
let file_response bytes =
  Http.Response.make
    ~headers:
      (Http.Headers.of_list
         [
           ("Content-Type", "text/html");
           ("Content-Length", string_of_int bytes);
         ])
    Http.Status.Ok

let transfer_bytes resp =
  let declared =
    match Http.Headers.content_length resp.Http.Response.headers with
    | Some n -> Stdlib.max n (Http.Response.body_size resp)
    | None -> Http.Response.body_size resp
  in
  Http.Response.wire_size resp - Http.Response.body_size resp + declared

let respond c nd env resp =
  with_span c nd "respond" (fun () ->
      Sim.Net.transfer c.net ~src:nd.id ~dst:env.client
        ~bytes:(transfer_bytes resp));
  Sim.Engine.resume env.resume resp

(* ------------------------------------------------------------------ *)
(* Cache operations *)

let now () = Sim.Engine.now ()
let incr nd k = Metrics.Counter.incr nd.counters k

(* Per-request cache treatment after composing the administrator rules
   (§4.1's configuration file) with script flags and server defaults.
   The TTL is either fully determined here ([Ttl]: a rule override, the
   script's own TTL, or the fixed default) or deferred to the per-key
   adaptive controller at insert time ([Controller_ttl]) — the controller
   needs the measured execution cost, which only exists after the CGI
   ran. Explicit rule/script TTLs always beat either server-wide layer
   (Cache.Freshness.effective_ttl's precedence). *)
type ttl_choice = Ttl of float option | Controller_ttl

type cache_ctl = { attempt : bool; ttl : ttl_choice; threshold : float }

let cache_ctl_for c (script : Cgi.Script.t) meth =
  let rule = Rules.decide c.cfg.Config.rules script.Cgi.Script.name in
  let attempt =
    script.Cgi.Script.cacheable && rule.Rules.cacheable
    && Http.Meth.equal meth Http.Meth.Get
    && c.cfg.Config.cache_mode <> Config.Disabled
  in
  let ttl =
    match c.cfg.Config.freshness with
    | Cache.Freshness.Fixed ->
        Ttl
          (Cache.Freshness.effective_ttl ~rule:rule.Rules.ttl
             ~script:script.Cgi.Script.ttl ~default:c.cfg.Config.default_ttl)
    | Cache.Freshness.Adaptive -> (
        match
          Cache.Freshness.effective_ttl ~rule:rule.Rules.ttl
            ~script:script.Cgi.Script.ttl ~default:None
        with
        | Some _ as t -> Ttl t
        | None -> Controller_ttl)
  in
  let threshold =
    Option.value rule.Rules.threshold ~default:c.cfg.Config.cache_threshold
  in
  { attempt; ttl; threshold }

(* Insert a freshly computed result: local store + local directory replica;
   returns the broadcast messages to send after the client is answered
   (Figure 2 broadcasts after returning the result). *)
let insert_result c nd ~key ~body ~exec_time ttl =
  with_span c nd "insert" @@ fun () ->
  Sim.Cpu.consume nd.cpu c.cfg.Config.insert_cost;
  let created = now () in
  (* Feed the controller before asking it: this very recomputation is an
     observation of the key's cost and update gap. *)
  Option.iter
    (fun f ->
      Cache.Freshness.observe_insert f ~now:created ~cost:exec_time key)
    nd.fresh;
  let ttl =
    match ttl with
    | Ttl t -> t
    | Controller_ttl -> (
        match nd.fresh with
        | Some f -> Some (Cache.Freshness.ttl f ~now:created ~cost:exec_time key)
        | None ->
            (* Unreachable: Controller_ttl is only emitted under Adaptive,
               which allocates the tracker. Fall back to the fixed layer. *)
            c.cfg.Config.default_ttl)
  in
  let meta =
    Cache.Meta.make ~key ~owner:nd.id ~size:(Http.Body.length body) ~exec_time
      ~created
      ~expires:(Option.map (fun t -> created +. t) ttl)
  in
  let broadcasts = ref [] in
  (match c.cfg.Config.cache_mode with
  | Config.Cooperative when sharded c ->
      (* The duplicate-execution check needs the key's shard entry, which
         lives at the home; the home performs it when this announcement
         arrives (apply_shard). Here only the store changes — the
         directory update is the announcement itself. *)
      let evicted = Cache.Store.insert_body nd.store meta body in
      List.iter
        (fun (m : Cache.Meta.t) ->
          broadcasts :=
            Cluster.Msg.Delete { node = nd.id; key = m.Cache.Meta.key }
            :: !broadcasts)
        evicted;
      broadcasts := Cluster.Msg.Insert meta :: !broadcasts
  | Config.Cooperative ->
      (* Weak consistency: a peer may have cached the same request while we
         executed it — the second kind of false miss (§4.2). *)
      (match
         Cache.Directory.lookup_from (rdir nd) ~self:nd.id ~now:created key
       with
      | Some m when m.Cache.Meta.owner <> nd.id ->
          incr nd K.false_miss_duplicate
      | Some _ | None -> ());
      let evicted = Cache.Store.insert_body nd.store meta body in
      Cache.Directory.insert (rdir nd) ~node:nd.id meta;
      List.iter
        (fun (m : Cache.Meta.t) ->
          ignore
            (Cache.Directory.delete (rdir nd) ~node:nd.id m.Cache.Meta.key
              : bool);
          broadcasts :=
            Cluster.Msg.Delete { node = nd.id; key = m.Cache.Meta.key }
            :: !broadcasts)
        evicted;
      broadcasts := Cluster.Msg.Insert meta :: !broadcasts
  | Config.Standalone -> ignore (Cache.Store.insert_body nd.store meta body : Cache.Meta.t list)
  | Config.Disabled -> ());
  incr nd K.inserts;
  List.rev !broadcasts

(* Transmit one directory-update message (bare or batched) to every peer
   per the configured consistency protocol, counting the unicasts and
   wire bytes actually sent. *)
let dispatch c nd msg =
  with_span c nd "broadcast" @@ fun () ->
  let span = span_of c in
  let sent =
    match (c.cfg.Config.consistency, c.cfg.Config.broadcast_latency) with
    | Config.Strong, _ ->
        (* Block until every replica has applied the update. *)
        Cluster.Broadcast.info_sync ~span c.net c.endpoints ~src:nd.id msg
    | Config.Weak, None ->
        (* Interruptible: a crash landing mid-fan-out stops the loop,
           leaving the replica update genuinely partial. *)
        Cluster.Broadcast.info
          ~should_abort:(fun () -> not nd.up)
          ~span c.net c.endpoints ~src:nd.id msg
    | Config.Weak, Some delay ->
        (* Ablation knob: deliver directory updates after a fixed delay,
           bypassing the network model, to widen or narrow the weak-
           consistency window in isolation. *)
        let sent = ref 0 in
        Array.iter
          (fun (ep : Cluster.Endpoint.t) ->
            if ep.Cluster.Endpoint.node <> nd.id then begin
              Stdlib.incr sent;
              ignore
                (Sim.Engine.schedule_after c.engine delay (fun () ->
                     Sim.Mailbox.send ep.Cluster.Endpoint.info_mb
                       { Cluster.Msg.info = msg; ack = None; span })
                  : Sim.Engine.handle)
            end)
          c.endpoints;
        !sent
  in
  if sent > 0 then begin
    Metrics.Counter.add nd.counters K.info_msgs sent;
    Metrics.Counter.add nd.counters K.info_bytes
      (sent * Cluster.Msg.info_bytes msg)
  end

(* ------------------------------------------------------------------ *)
(* Sharded plane: point-to-point announcement routing.

   Where the replicated plane broadcasts every update to all peers, the
   sharded plane unicasts it to the key's acting home — the first live
   node in ring-successor order — and the home alone maintains the
   entry. Hotspot control messages (Promote/Demote) flow from homes to
   their replica sets on the same info channel. *)

let key_of_update = function
  | Cluster.Msg.Insert m | Cluster.Msg.Promote m -> m.Cache.Meta.key
  | Cluster.Msg.Delete { key; _ } | Cluster.Msg.Demote { key } -> key
  | Cluster.Msg.Batch _ -> invalid_arg "Server: sharded updates never batch"

(* Unicast one announcement, charging the same counters as the replicated
   broadcast so info_msgs/info_bytes compare directly across planes. *)
let unicast_info c nd ~dst msg =
  Cluster.Broadcast.info_to ~span:(span_of c) c.net c.endpoints ~src:nd.id
    ~dst msg;
  incr nd K.info_msgs;
  Metrics.Counter.add nd.counters K.info_bytes (Cluster.Msg.info_bytes msg)

(* The nodes a hot key is replicated to: the ring successors after the
   primary owner, live nodes only, never self. *)
let replica_set c nd key =
  let st = shard_state nd in
  match
    Cache.Ring.successors st.MP.Sharded.ring key
      ~k:(1 + c.cfg.Config.hotspot_replicas)
  with
  | [] | [ _ ] -> []
  | _ :: tail -> List.filter (fun j -> j <> nd.id && c.nodes.(j).up) tail

let push_promote c nd (meta : Cache.Meta.t) =
  List.iter
    (fun j ->
      incr nd K.hotspot_replica_pushes;
      unicast_info c nd ~dst:j (Cluster.Msg.Promote meta))
    (replica_set c nd meta.Cache.Meta.key)

let push_demote c nd key =
  List.iter
    (fun j -> unicast_info c nd ~dst:j (Cluster.Msg.Demote { key }))
    (replica_set c nd key)

(* Apply one announcement at its destination — the shard home for
   inserts/deletes, a replica for promote/demote. Also runs directly when
   the announcing node is itself the acting home (no message then, like
   the replicated plane's local table update). *)
let apply_shard c nd msg =
  let st = shard_state nd in
  let table = st.MP.Sharded.table in
  match msg with
  | Cluster.Msg.Insert meta ->
      incr nd K.info_applied;
      (match Cache.Shard_table.insert table meta with
      | `Replaced old when old.Cache.Meta.owner <> meta.Cache.Meta.owner ->
          (* Duplicate execution discovered at reconciliation — the
             paper's second kind of false miss, observed at the shard
             home rather than at insert time. *)
          incr nd K.false_miss_duplicate
      | `Inserted | `Replaced _ | `Stale -> ());
      (* A hot key's replicas must see updates too, or their copies would
         serve the superseded owner until demotion. *)
      (match st.MP.Sharded.hotspot with
      | Some h when Cache.Hotspot.is_hot h meta.Cache.Meta.key ->
          push_promote c nd meta
      | Some _ | None -> ())
  | Cluster.Msg.Delete { node; key } ->
      incr nd K.info_applied;
      ignore (Cache.Shard_table.delete table ~owner:node key : bool);
      (match st.MP.Sharded.hotspot with
      | Some h when Cache.Hotspot.forget h key ->
          incr nd K.hotspot_demotions;
          push_demote c nd key
      | Some _ | None -> ())
  | Cluster.Msg.Promote meta ->
      incr nd K.info_applied;
      ignore
        (Cache.Shard_table.insert table meta
          : [ `Inserted | `Replaced of Cache.Meta.t | `Stale ])
  | Cluster.Msg.Demote { key } ->
      incr nd K.info_applied;
      (* Retract the replica copy — unless the ring now makes this node
         the key's acting home (the primary crashed since the promote), in
         which case the copy is the authoritative entry. *)
      let up i = c.nodes.(i).up in
      if Cache.Ring.acting_owner st.MP.Sharded.ring ~up key <> Some nd.id
      then ignore (Cache.Shard_table.delete table key : bool)
  | Cluster.Msg.Batch _ ->
      invalid_arg "Server: batched update on the sharded plane"

(* Route one announcement to the key's acting home. *)
let dispatch_sharded c nd msg =
  with_span c nd "announce" @@ fun () ->
  let st = shard_state nd in
  let up i = c.nodes.(i).up in
  match
    Cache.Ring.acting_owner st.MP.Sharded.ring ~up (key_of_update msg)
  with
  | None -> ()  (* every node down; no directory left to update *)
  | Some home when home = nd.id -> apply_shard c nd msg
  | Some home -> unicast_info c nd ~dst:home msg

(* ------------------------------------------------------------------ *)

(* The (table, key) a buffered update settles; two updates with the same
   target coalesce because the later one fully determines the key's final
   directory state. *)
let update_target = function
  | Cluster.Msg.Insert m -> (m.Cache.Meta.owner, m.Cache.Meta.key)
  | Cluster.Msg.Delete { node; key } -> (node, key)
  | Cluster.Msg.Promote _ | Cluster.Msg.Demote _ ->
      invalid_arg "Server: hotspot control messages are never batched"
  | Cluster.Msg.Batch _ -> invalid_arg "Server: batches cannot nest"

(* Transmit whatever the outbound buffer holds. A single buffered update
   goes out bare — byte-identical to the unbatched path — so the Batch
   wrapper (and its counters) only ever covers >= 2 updates. *)
let flush c nd =
  match nd.batch_buf with
  | [] -> ()
  | [ msg ] ->
      nd.batch_buf <- [];
      dispatch c nd msg
  | buffered ->
      nd.batch_buf <- [];
      let updates = List.rev buffered in
      incr nd K.batches_sent;
      Metrics.Counter.add nd.counters K.batch_updates (List.length updates);
      dispatch c nd (Cluster.Msg.Batch updates)

(* Originate one directory update. With batching off ([batch_max <= 1])
   this is exactly the pre-batching path: transmit immediately, bare.
   Otherwise buffer it, coalescing against any pending update to the same
   key (last write wins, and the winner moves to the end so in-order
   application at the receiver is preserved), and flush when the buffer
   reaches [batch_max]; the per-node flusher daemon handles the timer. *)
let enqueue c nd msg =
  (match msg with
  | Cluster.Msg.Insert _ -> incr nd K.broadcast_insert
  | Cluster.Msg.Delete _ -> incr nd K.broadcast_delete
  | Cluster.Msg.Promote _ | Cluster.Msg.Demote _ ->
      invalid_arg "Server: hotspot control messages do not enqueue"
  | Cluster.Msg.Batch _ -> invalid_arg "Server: batches cannot nest");
  if sharded c then dispatch_sharded c nd msg
  else if c.cfg.Config.batch_max <= 1 then dispatch c nd msg
  else begin
    let target = update_target msg in
    let rest =
      List.filter (fun u -> update_target u <> target) nd.batch_buf
    in
    if List.compare_lengths rest nd.batch_buf <> 0 then
      incr nd K.batch_coalesced;
    nd.batch_buf <- msg :: rest;
    if List.compare_length_with nd.batch_buf c.cfg.Config.batch_max >= 0 then
      flush c nd
  end

let send_broadcasts c nd msgs = List.iter (enqueue c nd) msgs

(* ------------------------------------------------------------------ *)
(* CGI execution (Figure 2's "Exec CGI, tee results to file") *)

let exec_cgi c nd (script : Cgi.Script.t) req key =
  with_span c nd "cgi.exec"
    ~attrs:(fun () -> [ ("script", script.Cgi.Script.name) ])
  @@ fun () ->
  (match Hashtbl.find_opt nd.in_flight key with
  | Some n when n > 0 ->
      (* First kind of false miss: an identical request is already being
         executed on this node and we run it again anyway (§4.2). *)
      incr nd K.false_miss_concurrent;
      Hashtbl.replace nd.in_flight key (n + 1)
  | Some _ | None -> Hashtbl.replace nd.in_flight key 1);
  incr nd K.cgi_execs;
  let query = req.Http.Request.uri.Http.Uri.query in
  let demand = Cgi.Cost.demand_for script.Cgi.Script.cost nd.rng ~query in
  let out_bytes = Cgi.Cost.output_bytes_for script.Cgi.Script.cost ~query in
  Sim.Cpu.consume nd.cpu
    ((script.Cgi.Script.cost.Cgi.Cost.fork_exec
     *. c.cfg.Config.model.Config.cgi_overhead_factor)
    +. demand);
  (match Hashtbl.find_opt nd.in_flight key with
  | Some 1 -> Hashtbl.remove nd.in_flight key
  | Some n -> Hashtbl.replace nd.in_flight key (n - 1)
  | None -> ());
  let failed =
    script.Cgi.Script.failure_rate > 0.
    && Sim.Rng.float nd.rng < script.Cgi.Script.failure_rate
  in
  if failed then begin
    incr nd K.cgi_failures;
    Error (Http.Response.error Http.Status.Internal_server_error "CGI failed")
  end
  else
    Ok (Cgi.Script.body script ~key ~bytes:out_bytes, demand)

(* Execute, optionally insert in the cache, respond, then broadcast. *)
let exec_and_respond c nd env (script : Cgi.Script.t) key ~(ctl : cache_ctl) =
  match exec_cgi c nd script env.req key with
  | Error resp -> respond c nd env resp
  | Ok (body, exec_time) ->
      let broadcasts =
        if ctl.attempt && exec_time >= ctl.threshold then
          insert_result c nd ~key ~body ~exec_time ctl.ttl
        else begin
          if ctl.attempt then incr nd K.below_threshold;
          []
        end
      in
      Sim.Cpu.consume nd.cpu
        (c.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length body));
      (* Figure 2 answers the client before broadcasting; under the strong
         protocol the whole point is that the reply implies every replica
         already knows, so the order flips. *)
      (match c.cfg.Config.consistency with
      | Config.Weak ->
          respond c nd env (Http.Response.ok body);
          send_broadcasts c nd broadcasts
      | Config.Strong ->
          send_broadcasts c nd broadcasts;
          respond c nd env (Http.Response.ok body))

(* ------------------------------------------------------------------ *)
(* Cache hit paths *)

(* Host-side freshness bookkeeping at a cache hit (either kind): sample
   the served result's age, count it stale when the adaptive controller
   admitted more age than the fixed default_ttl anchor would have, and
   credit the owner's latest proactive refresh with the execution it
   displaced (first hit after the refresh pops the pending credit). Pure
   observation — no simulated effects — so recording perturbs nothing. *)
let note_hit_freshness c nd (meta : Cache.Meta.t) =
  let age = Cache.Meta.age meta ~now:(now ()) in
  Metrics.Histogram.add c.staleness age;
  (match (nd.fresh, c.cfg.Config.default_ttl) with
  | Some _, Some anchor when age > anchor -> incr nd K.stale_served
  | _ -> ());
  let owner = meta.Cache.Meta.owner in
  if owner >= 0 && owner < Array.length c.nodes then begin
    let ond = c.nodes.(owner) in
    match Hashtbl.find_opt ond.refreshed meta.Cache.Meta.key with
    | Some saved ->
        Hashtbl.remove ond.refreshed meta.Cache.Meta.key;
        Metrics.Counter.add ond.counters K.refresh_saved_ms
          (int_of_float (Float.round (saved *. 1000.)))
    | None -> ()
  end

let serve_local c nd env ~t0 (entry : Cache.Store.entry) =
  incr nd K.hit_local;
  note_hit_freshness c nd entry.Cache.Store.meta;
  with_span c nd "hit.local" (fun () ->
      Sim.Cpu.consume nd.cpu c.cfg.Config.local_fetch_cost;
      (* The result file is recently used, hence in the OS buffer cache. *)
      Sim.Disk.read nd.disk ~bytes:entry.Cache.Store.meta.Cache.Meta.size
        ~cached:true;
      Sim.Cpu.consume nd.cpu
        (c.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length entry.Cache.Store.body)));
  respond c nd env (Http.Response.ok entry.Cache.Store.body);
  Metrics.Sample.add c.hit_latency (now () -. t0)

let fetch_remote c nd env (script : Cgi.Script.t) key ~(ctl : cache_ctl) ~t0
    (meta : Cache.Meta.t) =
  let owner = meta.Cache.Meta.owner in
  let answer =
    with_span c nd "fetch.remote"
      ~attrs:(fun () -> [ ("owner", string_of_int owner) ])
    @@ fun () ->
    Sim.Cpu.consume nd.cpu c.cfg.Config.remote_fetch_cost;
    let span = span_of c in
    match c.cfg.Config.fetch_timeout with
    | None ->
        let reply = Sim.Mailbox.create () in
        Cluster.Broadcast.fetch c.net c.endpoints ~src:nd.id ~owner
          { Cluster.Msg.key; requester = nd.id; reply; span };
        Some (Sim.Mailbox.recv reply)
    | Some timeout ->
        let reply, retries =
          Cluster.Broadcast.fetch_sync ~span c.net c.endpoints ~src:nd.id
            ~owner ~timeout ~retries:c.cfg.Config.fetch_retries
            ~backoff:c.cfg.Config.fetch_backoff key
        in
        if retries > 0 then
          Metrics.Counter.add nd.counters K.fetch_retries retries;
        reply
  in
  match answer with
  | None ->
      (* Request or reply lost (or owner unreachable): give up on the
         remote copy and execute locally, like a false hit. *)
      incr nd K.fetch_timeouts;
      (* Under fault injection a fetch that survives every retry marks the
         owner as suspect — most likely crashed or partitioned. Drop our
         replica of its whole directory table: its entries could only
         produce more timed-out fetches, and if the owner is alive it will
         re-announce whatever it still caches as requests repopulate it. *)
      (match c.fault with
      | Some _ ->
          if sharded c then begin
            let st = shard_state nd in
            let purged =
              Cache.Shard_table.purge_owner st.MP.Sharded.table ~node:owner
            in
            if purged > 0 then
              Metrics.Counter.add nd.counters K.dir_suspect_purged purged;
            Option.iter
              (fun lc -> Cache.Lookup_cache.invalidate lc key)
              st.MP.Sharded.lcache
          end
          else begin
            let purged = Cache.Directory.purge_node (rdir nd) ~node:owner in
            if purged > 0 then
              Metrics.Counter.add nd.counters K.dir_suspect_purged purged
          end
      | None -> ());
      exec_and_respond c nd env script key ~ctl
  | Some (Cluster.Msg.Hit { meta = served; body }) ->
      incr nd K.hit_remote;
      (* Use the owner's reply meta, not the directory's view: the entry
         may have been refreshed since the directory lookup. *)
      note_hit_freshness c nd served;
      Sim.Cpu.consume nd.cpu
        (c.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length body));
      respond c nd env (Http.Response.ok body);
      Metrics.Sample.add c.hit_latency (now () -. t0)
  | Some (Cluster.Msg.Miss _) ->
      (* False hit: the entry vanished at the owner after our directory
         lookup. Execute locally, as in Figure 2. *)
      incr nd K.false_hit;
      if sharded c then
        (* The positive information that led here was provably stale. *)
        Option.iter
          (fun lc -> Cache.Lookup_cache.invalidate lc key)
          (shard_state nd).MP.Sharded.lcache;
      exec_and_respond c nd env script key ~ctl

(* ------------------------------------------------------------------ *)
(* Sharded-plane lookup (Figure 2's directory query, re-routed through
   the consistent-hash ring) *)

(* Count one home-served lookup toward hotspot promotion; when this very
   observation promotes the key, push its entry to the replica set. A
   promotion on a miss has nothing to push — the next Insert announcement
   does it (apply_shard checks is_hot). *)
let note_hot_lookup c nd meta_opt key =
  match (shard_state nd).MP.Sharded.hotspot with
  | None -> ()
  | Some h -> (
      match Cache.Hotspot.record h ~now:(now ()) key with
      | `Noted -> ()
      | `Promoted -> (
          incr nd K.hotspot_promotions;
          match meta_opt with
          | Some meta -> push_promote c nd meta
          | None -> ()))

(* A directory hit whose meta points at this very node: serve from the
   store, or repair the shard entry when the store raced it away. *)
let serve_self_or_repair c nd env script key ~ctl ~t0 ~drop_entry =
  match Cache.Store.lookup nd.store key with
  | Some entry -> serve_local c nd env ~t0 entry
  | None ->
      incr nd K.dir_stale_self;
      if drop_entry then
        ignore
          (Cache.Shard_table.delete (shard_state nd).MP.Sharded.table
             ~owner:nd.id key
            : bool);
      exec_and_respond c nd env script key ~ctl

(* Ask the key's acting home who caches it — the sharded plane's only
   remote metadata operation. The request is counted at the requester,
   the reply at the home (lookup_server), so summing nodes counts both
   legs. *)
let forward_lookup c nd env (script : Cgi.Script.t) key ~ctl ~t0 ~home =
  let st = shard_state nd in
  incr nd K.shard_fwd_lookups;
  let t_fwd = now () in
  let answer =
    with_span c nd "dir.forward"
      ~attrs:(fun () -> [ ("home", string_of_int home) ])
    @@ fun () ->
    let reply_mb = Sim.Mailbox.create () in
    let req =
      {
        Cluster.Msg.lkey = key;
        lrequester = nd.id;
        lreply = reply_mb;
        lspan = span_of c;
      }
    in
    Cluster.Broadcast.lookup c.net c.endpoints ~src:nd.id ~home req;
    incr nd K.dir_lookup_msgs;
    Metrics.Counter.add nd.counters K.dir_lookup_bytes
      (Cluster.Msg.lookup_request_bytes req);
    match c.cfg.Config.fetch_timeout with
    | None -> Some (Sim.Mailbox.recv reply_mb)
    | Some timeout -> Sim.Mailbox.recv_timeout reply_mb ~timeout
  in
  Metrics.Histogram.add c.fwd_wait (now () -. t_fwd);
  match answer with
  | None ->
      (* Home crashed or partitioned away: execute locally. The crash
         handoff (or the fetch-timeout suspect purge) repairs the shard. *)
      incr nd K.dir_lookup_timeouts;
      Option.iter
        (fun lc -> Cache.Lookup_cache.invalidate lc key)
        st.MP.Sharded.lcache;
      exec_and_respond c nd env script key ~ctl
  | Some (Cluster.Msg.Found meta) ->
      Option.iter
        (fun lc -> Cache.Lookup_cache.note_pos lc ~now:(now ()) meta)
        st.MP.Sharded.lcache;
      if meta.Cache.Meta.owner = nd.id then
        (* The home believes we cache it but our store disagrees (purge
           raced the delete announcement): the delete is already on the
           wire, so only execute. *)
        serve_self_or_repair c nd env script key ~ctl ~t0 ~drop_entry:false
      else fetch_remote c nd env script key ~ctl ~t0 meta
  | Some (Cluster.Msg.Absent _) ->
      Option.iter
        (fun lc -> Cache.Lookup_cache.note_neg lc ~now:(now ()) key)
        st.MP.Sharded.lcache;
      exec_and_respond c nd env script key ~ctl

let lookup_sharded c nd env (script : Cgi.Script.t) key ~ctl =
  let st = shard_state nd in
  let ring = st.MP.Sharded.ring in
  let t0 = now () in
  let up i = c.nodes.(i).up in
  match Cache.Ring.acting_owner ring ~up key with
  | None ->
      (* Every node is down but this one is handling a request — cannot
         happen outside shutdown races; degrade to plain execution. *)
      exec_and_respond c nd env script key ~ctl
  | Some home when home = nd.id -> (
      incr nd K.shard_local_lookups;
      match
        with_span c nd "dir.lookup" (fun () ->
            Cache.Shard_table.probe st.MP.Sharded.table ~now:(now ()) key)
      with
      | None ->
          note_hot_lookup c nd None key;
          exec_and_respond c nd env script key ~ctl
      | Some meta ->
          note_hot_lookup c nd (Some meta) key;
          if meta.Cache.Meta.owner = nd.id then
            serve_self_or_repair c nd env script key ~ctl ~t0 ~drop_entry:true
          else fetch_remote c nd env script key ~ctl ~t0 meta)
  | Some home -> (
      (* Hotspot fast path: with promotion on, this node's table may hold
         a pushed copy of a hot key — probe before paying the forward. *)
      let promoted =
        match st.MP.Sharded.hotspot with
        | Some _ ->
            with_span c nd "dir.lookup" (fun () ->
                Cache.Shard_table.probe st.MP.Sharded.table ~now:(now ()) key)
        | None -> None
      in
      match promoted with
      | Some meta ->
          incr nd K.shard_replica_hits;
          if meta.Cache.Meta.owner = nd.id then
            serve_self_or_repair c nd env script key ~ctl ~t0 ~drop_entry:true
          else fetch_remote c nd env script key ~ctl ~t0 meta
      | None -> (
          match
            Option.map
              (fun lc -> Cache.Lookup_cache.find lc ~now:(now ()) key)
              st.MP.Sharded.lcache
          with
          | Some (Cache.Lookup_cache.Hit meta) ->
              fetch_remote c nd env script key ~ctl ~t0 meta
          | Some Cache.Lookup_cache.Absent ->
              exec_and_respond c nd env script key ~ctl
          | Some Cache.Lookup_cache.Unknown | None ->
              forward_lookup c nd env script key ~ctl ~t0 ~home))

(* ------------------------------------------------------------------ *)
(* Figure 2 control flow *)

let handle_cgi c nd env (script : Cgi.Script.t) =
  let key = Http.Request.cache_key env.req in
  let ctl = cache_ctl_for c script env.req.Http.Request.meth in
  if not ctl.attempt then begin
    incr nd K.uncacheable;
    exec_and_respond c nd env script key ~ctl
  end
  else begin
    (* Every cache-directed access feeds the key's rate estimate — hits
       and misses alike, since both are demand for a fresh result. *)
    Option.iter
      (fun f -> Cache.Freshness.observe_access f ~now:(now ()) key)
      nd.fresh;
    match c.cfg.Config.cache_mode with
    | Config.Disabled -> assert false
    | Config.Standalone -> (
        let t0 = now () in
        match Cache.Store.lookup nd.store key with
        | Some entry -> serve_local c nd env ~t0 entry
        | None -> exec_and_respond c nd env script key ~ctl)
    | Config.Cooperative when sharded c ->
        lookup_sharded c nd env script key ~ctl
    | Config.Cooperative -> (
        let t0 = now () in
        match
          with_span c nd "dir.lookup" (fun () ->
              Cache.Directory.lookup_from (rdir nd) ~self:nd.id ~now:(now ())
                key)
        with
        | None -> exec_and_respond c nd env script key ~ctl
        | Some meta when meta.Cache.Meta.owner = nd.id -> (
            match Cache.Store.lookup nd.store key with
            | Some entry -> serve_local c nd env ~t0 entry
            | None ->
                (* Directory said we own it but the store dropped it
                   (expiry race); repair and execute. *)
                incr nd K.dir_stale_self;
                ignore
                  (Cache.Directory.delete (rdir nd) ~node:nd.id key : bool);
                exec_and_respond c nd env script key ~ctl)
        | Some meta -> fetch_remote c nd env script key ~ctl ~t0 meta)
  end

let handle c nd env =
  with_span c nd "handle" ~parent:env.span
    ~attrs:(fun () -> [ ("path", env.req.Http.Request.uri.Http.Uri.path) ])
  @@ fun () ->
  incr nd K.requests;
  if not nd.up then begin
    (* The node is crashed; the connection front-end answers on its behalf
       with 503 rather than letting the client hang. *)
    incr nd K.rejected_down;
    respond c nd env
      (Http.Response.error Http.Status.Service_unavailable "node down")
  end
  else begin
  let active_at_arrival = nd.active in
  nd.active <- nd.active + 1;
  let model = c.cfg.Config.model in
  Sim.Cpu.consume nd.cpu
    (model.Config.accept_cost +. model.Config.per_request_fork
    +. (model.Config.contention_coeff *. float_of_int active_at_arrival));
  (match Cgi.Registry.resolve c.registry env.req.Http.Request.uri.Http.Uri.path with
  | None ->
      incr nd K.not_found;
      respond c nd env
        (Http.Response.error Http.Status.Not_found
           env.req.Http.Request.uri.Http.Uri.path)
  | Some (Cgi.Registry.Static_file { bytes; _ }) ->
      incr nd K.file_fetches;
      let cached = Sim.Rng.float nd.rng < c.cfg.Config.fs_cache_hit in
      Sim.Disk.read nd.disk ~bytes ~cached;
      Sim.Cpu.consume nd.cpu
        (model.Config.per_byte_send *. float_of_int bytes);
      respond c nd env (file_response bytes)
  | Some (Cgi.Registry.Cgi_script script) -> handle_cgi c nd env script);
  nd.active <- nd.active - 1
  end

(* ------------------------------------------------------------------ *)
(* Daemons (the cacher module's three threads, §4.1) *)

let request_thread c nd =
  let rec loop () =
    let env = Sim.Mailbox.recv nd.listen in
    handle c nd env;
    loop ()
  in
  loop ()

(* Apply a received directory update; a batch applies its updates in list
   order, so a later update to the same key wins. [info_applied] counts
   updates, not envelopes, keeping it comparable across batch settings. *)
let rec apply_info nd = function
  | Cluster.Msg.Insert meta ->
      incr nd K.info_applied;
      Cache.Directory.insert (rdir nd) ~node:meta.Cache.Meta.owner meta
  | Cluster.Msg.Delete { node; key } ->
      incr nd K.info_applied;
      ignore (Cache.Directory.delete (rdir nd) ~node key : bool)
  | Cluster.Msg.Batch updates -> List.iter (apply_info nd) updates
  | Cluster.Msg.Promote _ | Cluster.Msg.Demote _ ->
      invalid_arg "Server: hotspot control message on the replicated plane"

let rec info_updates = function
  | Cluster.Msg.Insert _ | Cluster.Msg.Delete _ | Cluster.Msg.Promote _
  | Cluster.Msg.Demote _ ->
      1
  | Cluster.Msg.Batch l -> List.fold_left (fun a u -> a + info_updates u) 0 l

let info_daemon c nd =
  let rec loop () =
    let envelope = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.info_mb in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
    (* Causally a child of the originating request, but applied off its
       critical path — hence async. *)
    with_span c nd "info.apply" ~parent:envelope.Cluster.Msg.span ~async:true
      (fun () ->
        (* The apply cost is per update: batching amortizes the envelope on
           the wire, not the directory work at the receiver. *)
        Sim.Cpu.consume nd.cpu
          (float_of_int (info_updates envelope.Cluster.Msg.info)
          *. c.cfg.Config.info_apply_cost);
        (if sharded c then apply_shard c nd envelope.Cluster.Msg.info
         else apply_info nd envelope.Cluster.Msg.info);
        match envelope.Cluster.Msg.ack with
        | Some (sender, ack) ->
            incr nd K.acks_sent;
            Sim.Net.send c.net ~src:nd.id ~dst:sender ~bytes:32 ack ()
        | None -> ());
    loop ()
    end
  in
  loop ()

let data_server c nd =
  let rec loop () =
    let fetch = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.data_mb in
    if not nd.up then loop ()  (* crashed owner: requester's fetch times out *)
    else begin
    (* One thread per fetch, as in §4.1. Async: the serve runs on the
       owner concurrently with the requester's wait, so its time is
       already inside the requester's fetch.remote span. *)
    Sim.Engine.spawn_child (fun () ->
        with_span c nd "fetch.serve" ~parent:fetch.Cluster.Msg.span
          ~async:true
        @@ fun () ->
        Sim.Cpu.consume nd.cpu c.cfg.Config.data_server_cost;
        let reply_msg =
          match Cache.Store.lookup nd.store fetch.Cluster.Msg.key with
          | Some entry ->
              Sim.Disk.read nd.disk
                ~bytes:entry.Cache.Store.meta.Cache.Meta.size ~cached:true;
              Cluster.Msg.Hit
                { meta = entry.Cache.Store.meta; body = entry.Cache.Store.body }
          | None -> Cluster.Msg.Miss { key = fetch.Cluster.Msg.key }
        in
        Sim.Net.send c.net ~src:nd.id ~dst:fetch.Cluster.Msg.requester
          ~bytes:(Cluster.Msg.fetch_reply_bytes reply_msg)
          fetch.Cluster.Msg.reply reply_msg);
    loop ()
    end
  in
  loop ()

(* The sharded plane's extra daemon: answer forwarded directory lookups
   for the keys this node homes. One thread per request, like the data
   server; a crashed home never replies, so the requester times out and
   executes locally. *)
let lookup_server c nd =
  let rec loop () =
    let req = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.lookup_mb in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
      Sim.Engine.spawn_child (fun () ->
          with_span c nd "dir.serve" ~parent:req.Cluster.Msg.lspan ~async:true
          @@ fun () ->
          Sim.Cpu.consume nd.cpu c.cfg.Config.info_apply_cost;
          let st = shard_state nd in
          let found =
            Cache.Shard_table.probe st.MP.Sharded.table ~now:(now ())
              req.Cluster.Msg.lkey
          in
          (* Forwarded lookups are the home's view of the key's demand —
             the signal hotspot promotion feeds on. *)
          note_hot_lookup c nd found req.Cluster.Msg.lkey;
          let reply =
            match found with
            | Some meta -> Cluster.Msg.Found meta
            | None -> Cluster.Msg.Absent { key = req.Cluster.Msg.lkey }
          in
          incr nd K.dir_lookup_msgs;
          Metrics.Counter.add nd.counters K.dir_lookup_bytes
            (Cluster.Msg.lookup_reply_bytes reply);
          Sim.Net.send c.net ~src:nd.id ~dst:req.Cluster.Msg.lrequester
            ~bytes:(Cluster.Msg.lookup_reply_bytes reply)
            req.Cluster.Msg.lreply reply);
      loop ()
    end
  in
  loop ()

(* Demote cooled hotspot keys once per window. Only shard homes promote,
   so only they originate demotions; Hotspot.sweep returns the cooled
   keys sorted, keeping the message order deterministic. *)
let hotspot_sweeper c nd ~period =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay period;
      (if nd.up && not nd.stop then
         match (shard_state nd).MP.Sharded.hotspot with
         | None -> ()
         | Some h ->
             List.iter
               (fun key ->
                 incr nd K.hotspot_demotions;
                 with_span c nd "hotspot.demote" (fun () ->
                     push_demote c nd key))
               (Cache.Hotspot.sweep h ~now:(now ())));
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Node crash and restart (fault injection).

   A crash is fail-stop with total cache-state loss: the store, the node's
   own directory table and the in-flight bookkeeping are wiped, and while
   down the node neither answers fetches nor applies directory updates
   (the network additionally drops its traffic). Requests already being
   processed run to completion — the simulator models losing the cache,
   not killing OS processes mid-request; this only makes the measured
   degradation an underestimate.

   A restart is cold: the node rejoins with empty tables and re-announces
   entries one by one as it repopulates (each insert broadcasts, exactly
   like a first boot) — the weak-consistency repair story, with no global
   resynchronisation. Peers may still hold stale entries owned by the
   crashed node; those are repaired lazily, either by the suspect purge on
   fetch-timeout exhaustion or by a Miss reply after the restart. *)

let crash nd =
  if nd.up then begin
    nd.up <- false;
    incr nd K.crashes;
    ignore (Cache.Store.clear nd.store : int);
    (* Replicated: wipe only this node's own directory table (peer tables
       are replicas of state that still exists elsewhere). Sharded: the
       whole node-local plane dies — shard partition, lookup cache and
       hotspot tracker. *)
    ignore (MP.reset ~node:nd.id nd.plane : int);
    Hashtbl.reset nd.in_flight;
    (* Buffered-but-unflushed directory updates die with the node; peers
       learn of the lost entries via false hits / anti-entropy, exactly
       like updates lost mid-broadcast. *)
    nd.batch_buf <- [];
    (* The freshness tracker's rate estimates describe a cache that no
       longer exists; restart from a cold controller, like the store. *)
    Option.iter Cache.Freshness.clear nd.fresh;
    Hashtbl.reset nd.refreshed
  end

let restart nd =
  if not nd.up then begin
    nd.up <- true;
    incr nd K.restarts
  end

(* Shard handoff: after any liveness change (crash, restart, partition
   heal) every live node re-derives which keys it answers for and
   re-announces its own cached entries to their — possibly new — acting
   homes. Re-announcements reconcile newest-wins at the receiver, so the
   protocol is idempotent and safe to over-trigger. On a crash the dead
   node's directory entries are additionally dropped eagerly
   ([purge_owner]) instead of waiting for fetch-timeout suspicion; stale
   positive lookup-cache entries pointing at the dead node are left to
   expire (bounded by [shard_pos_ttl]) or be invalidated by the first
   timed-out fetch. Runs as a spawned process per node: the triggering
   event callback cannot block on locks or the network. *)
let shard_handoff c ?died () =
  Array.iter
    (fun nd ->
      if nd.up then
        Sim.Engine.spawn c.engine (fun () ->
            let st = shard_state nd in
            let ring = st.MP.Sharded.ring in
            (match died with
            | Some j ->
                let purged =
                  Cache.Shard_table.purge_owner st.MP.Sharded.table ~node:j
                in
                if purged > 0 then
                  Metrics.Counter.add nd.counters K.dir_suspect_purged purged
            | None -> ());
            let up i = c.nodes.(i).up in
            (* Drop entries this node no longer answers for — unless it
               may legitimately hold them as a hotspot replica. *)
            let keep key =
              match Cache.Ring.acting_owner ring ~up key with
              | Some h when h = nd.id -> true
              | Some _ | None ->
                  c.cfg.Config.hotspot_threshold > 0.
                  && List.exists
                       (fun j -> j = nd.id)
                       (Cache.Ring.successors ring key
                          ~k:(1 + c.cfg.Config.hotspot_replicas))
            in
            let pruned = Cache.Shard_table.prune st.MP.Sharded.table ~keep in
            if pruned > 0 then
              Metrics.Counter.add nd.counters K.shard_pruned pruned;
            List.iter
              (fun key ->
                match Cache.Store.peek nd.store key with
                | None -> ()
                | Some entry ->
                    incr nd K.shard_handoff_reannounced;
                    dispatch_sharded c nd
                      (Cluster.Msg.Insert entry.Cache.Store.meta))
              (Cache.Store.keys nd.store)))
    c.nodes

(* ------------------------------------------------------------------ *)
(* Anti-entropy (directory repair).

   Each node periodically exchanges per-table directory digests with one
   seeded-random peer and pulls the entries it is missing or holds stale,
   so replicas provably reconverge after a partition heals or a crash cut
   a broadcast short — instead of relying only on the lazy suspect purge.

   Reconciliation rules, per table [j] of a reply from peer [p]:
   - [j = self]: skipped. A node's own table tracks its own store; a peer
     cannot know better, and adopting a peer's stale replica would
     resurrect entries the store no longer holds.
   - [j = p]: the responder is the authority for its own table, so the
     requester adopts it wholesale — stale entries are removed, missing
     ones inserted. This is the only path on which anti-entropy deletes,
     and it is exactly the path on which deletion is safe.
   - otherwise (third-party replica): per-key recency merge — pull a key
     iff it is missing or the incoming meta is newer ([created] is the
     owner's insertion clock, so newest-wins is well defined). Never
     deletes: a missing key may mean "never heard the insert", so removal
     waits for the authority or an ordinary Delete broadcast.

   A pulled key that the requester itself also caches (same key in its own
   table) reveals a duplicate execution that happened while the replicas
   were divided — the paper's second kind of false miss, discovered at
   reconciliation time rather than at insert time. *)

let ae_merge c nd (reply : Cluster.Msg.sync_reply) ~peer =
  let pulled = ref 0 in
  List.iter
    (fun (j, metas) ->
      if j <> nd.id && j >= 0 && j < Array.length c.nodes then
        if j = peer then begin
          (* Authoritative copy: drop whatever the responder no longer has. *)
          let keep = Hashtbl.create (List.length metas) in
          List.iter
            (fun (m : Cache.Meta.t) -> Hashtbl.replace keep m.Cache.Meta.key ())
            metas;
          List.iter
            (fun (m : Cache.Meta.t) ->
              if not (Hashtbl.mem keep m.Cache.Meta.key) then
                ignore
                  (Cache.Directory.delete (rdir nd) ~node:j m.Cache.Meta.key
                    : bool))
            (Cache.Directory.entries (rdir nd) ~node:j);
          List.iter
            (fun (m : Cache.Meta.t) ->
              match Cache.Directory.find (rdir nd) ~node:j m.Cache.Meta.key with
              | Some cur when cur.Cache.Meta.created >= m.Cache.Meta.created ->
                  ()
              | (Some _ | None) as cur ->
                  if cur = None
                     && Cache.Directory.find (rdir nd) ~node:nd.id
                          m.Cache.Meta.key
                        <> None
                  then incr nd K.false_miss_duplicate;
                  Cache.Directory.insert (rdir nd) ~node:j m;
                  Stdlib.incr pulled)
            metas
        end
        else
          List.iter
            (fun (m : Cache.Meta.t) ->
              match Cache.Directory.find (rdir nd) ~node:j m.Cache.Meta.key with
              | Some cur when cur.Cache.Meta.created >= m.Cache.Meta.created ->
                  ()
              | (Some _ | None) as cur ->
                  if cur = None
                     && Cache.Directory.find (rdir nd) ~node:nd.id
                          m.Cache.Meta.key
                        <> None
                  then incr nd K.false_miss_duplicate;
                  Cache.Directory.insert (rdir nd) ~node:j m;
                  Stdlib.incr pulled)
            metas)
    reply.Cluster.Msg.tables;
  !pulled

(* One anti-entropy round: digest everything, ask one seeded-random peer,
   merge whatever comes back before the (bounded) wait expires. *)
let ae_round c nd ~period =
  with_span c nd "ae.round" @@ fun () ->
  let n = Array.length c.nodes in
  let peer =
    let k = Sim.Rng.int nd.ae_rng (n - 1) in
    if k >= nd.id then k + 1 else k
  in
  incr nd K.anti_entropy_rounds;
  let digests =
    Array.init n (fun j ->
        let n_entries, hash = Cache.Directory.digest (rdir nd) ~node:j in
        { Cluster.Msg.n_entries; hash })
  in
  let reply_mb = Sim.Mailbox.create () in
  Cluster.Broadcast.sync c.net c.endpoints ~src:nd.id ~peer
    {
      Cluster.Msg.from_node = nd.id;
      digests;
      sync_reply = reply_mb;
      span = span_of c;
    };
  let timeout = Option.value c.cfg.Config.fetch_timeout ~default:period in
  match Sim.Mailbox.recv_timeout reply_mb ~timeout with
  | None -> ()  (* peer down or partitioned away; next round, another peer *)
  | Some reply ->
      let pulled = ae_merge c nd reply ~peer in
      if pulled > 0 then
        Metrics.Counter.add nd.counters K.anti_entropy_pulled pulled

let anti_entropy_daemon c nd ~period =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay period;
      if nd.up && not nd.stop && Array.length c.nodes > 1 then begin
        Sim.Cpu.consume nd.cpu c.cfg.Config.info_apply_cost;
        ae_round c nd ~period
      end;
      loop ()
    end
  in
  loop ()

(* The responder half: answer digest exchanges with the tables that
   differ. Runs forever on its mailbox, like the info receiver. *)
let sync_responder c nd =
  let rec loop () =
    let req = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.sync_mb in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
      with_span c nd "ae.respond" ~parent:req.Cluster.Msg.span ~async:true
        (fun () ->
      Sim.Cpu.consume nd.cpu c.cfg.Config.info_apply_cost;
      let n = Array.length c.nodes in
      let tables = ref [] in
      for j = n - 1 downto 0 do
        let n_entries, hash = Cache.Directory.digest (rdir nd) ~node:j in
        let differs =
          match
            if j < Array.length req.Cluster.Msg.digests then
              Some req.Cluster.Msg.digests.(j)
            else None
          with
          | Some d ->
              d.Cluster.Msg.n_entries <> n_entries || d.Cluster.Msg.hash <> hash
          | None -> true
        in
        if differs then
          tables := (j, Cache.Directory.entries (rdir nd) ~node:j) :: !tables
      done;
      let reply = { Cluster.Msg.tables = !tables } in
      Sim.Net.send c.net ~src:nd.id ~dst:req.Cluster.Msg.from_node
        ~bytes:(Cluster.Msg.sync_reply_bytes reply)
        req.Cluster.Msg.sync_reply reply);
      loop ()
    end
  in
  loop ()

let purge_daemon c nd =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay c.cfg.Config.purge_interval;
      (* Trim the freshness tracker's cold keys on the same cadence; pure
         host-side bookkeeping, so it perturbs nothing. *)
      Option.iter
        (fun f -> ignore (Cache.Freshness.sweep f ~now:(now ()) : int))
        nd.fresh;
      let expired = Cache.Store.purge_expired nd.store in
      List.iter
        (fun (m : Cache.Meta.t) ->
          incr nd K.purged;
          (* Sharded: the local directory update IS the announcement —
             dispatch applies it locally when this node is the home. *)
          if not (sharded c) then
            ignore
              (Cache.Directory.delete (rdir nd) ~node:nd.id m.Cache.Meta.key
                : bool);
          if c.cfg.Config.cache_mode = Config.Cooperative then
            send_broadcasts c nd
              [ Cluster.Msg.Delete { node = nd.id; key = m.Cache.Meta.key } ])
        expired;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Proactive refresh (the freshness plane's daemon).

   Once per [refresh_interval] each node scans its own store for entries
   expiring within two intervals and re-executes the hot, expensive ones
   off the critical path, spending at most [refresh_budget] executions
   per second (token bucket with one interval of carry). A refreshed
   entry is re-inserted with a fresh TTL (adaptive or fixed, like any
   insert) and re-announced to the directory, so the next client hit
   serves a young result instead of missing and paying the recomputation
   — refresh_saved_ms credits exactly those displaced executions
   (note_hit_freshness pops the pending credit on the first hit).

   Candidate order is deterministic: most expensive first (the biggest
   saving per token), then soonest-expiring, then key. "Hot" means
   accessed within [freshness_window]; an entry nobody touched recently
   would spend budget on a result nobody may ask for again. Demand and
   failure draws come from [refresh_rng] — its own salted stream — so
   the daemon never perturbs request-path randomness; with the budget at
   zero the daemon is not even spawned and runs are byte-identical to
   builds without it. *)

(* Cache keys are "METHOD /path?query" (Http.Request.cache_key); recover
   the URI so the refresh can redraw the script's demand and output size
   with the original query parameters. *)
let uri_of_cache_key key =
  match String.index_opt key ' ' with
  | None -> None
  | Some i -> (
      let target = String.sub key (i + 1) (String.length key - i - 1) in
      match Http.Uri.parse target with Ok uri -> Some uri | Error _ -> None)

(* Re-execute one near-expiry entry and re-insert its result. Returns
   [true] when a budget token was spent (the CGI actually ran). *)
let refresh_entry c nd key =
  match uri_of_cache_key key with
  | None -> false
  | Some uri -> (
      match Cgi.Registry.resolve c.registry uri.Http.Uri.path with
      | None | Some (Cgi.Registry.Static_file _) -> false
      | Some (Cgi.Registry.Cgi_script script) ->
          let ctl = cache_ctl_for c script Http.Meth.Get in
          if not ctl.attempt then false
          else begin
            with_span c nd "refresh.exec"
              ~attrs:(fun () -> [ ("script", script.Cgi.Script.name) ])
            @@ fun () ->
            let query = uri.Http.Uri.query in
            let demand =
              Cgi.Cost.demand_for script.Cgi.Script.cost nd.refresh_rng ~query
            in
            Sim.Cpu.consume nd.cpu
              ((script.Cgi.Script.cost.Cgi.Cost.fork_exec
               *. c.cfg.Config.model.Config.cgi_overhead_factor)
              +. demand);
            let failed =
              script.Cgi.Script.failure_rate > 0.
              && Sim.Rng.float nd.refresh_rng < script.Cgi.Script.failure_rate
            in
            (if (not failed) && demand >= ctl.threshold then begin
               let out_bytes =
                 Cgi.Cost.output_bytes_for script.Cgi.Script.cost ~query
               in
               let body = Cgi.Script.body script ~key ~bytes:out_bytes in
               let msgs = insert_result c nd ~key ~body ~exec_time:demand ctl.ttl in
               incr nd K.refreshes;
               Hashtbl.replace nd.refreshed key demand;
               send_broadcasts c nd msgs
             end);
            true
          end)

let refresh_daemon c nd ~budget ~interval =
  let credit = ref 0. in
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay interval;
      if nd.up && not nd.stop then begin
        (* Token bucket: earn one interval's worth per tick, carry at most
           one more interval's worth, so an idle period cannot bank an
           unbounded burst. *)
        credit :=
          Float.min (2. *. budget *. interval) (!credit +. (budget *. interval));
        let hot_window = c.cfg.Config.freshness_window in
        let candidates =
          Cache.Store.expiring nd.store ~now:(now ()) ~horizon:(2. *. interval)
        in
        let worthwhile =
          List.filter
            (fun (cand : Cache.Store.candidate) ->
              cand.Cache.Store.c_hits > 0
              && now () -. cand.Cache.Store.c_last_access <= hot_window)
            candidates
          |> List.sort (fun (a : Cache.Store.candidate) b ->
                 let c =
                   Float.compare
                     b.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.exec_time
                     a.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.exec_time
                 in
                 if c <> 0 then c
                 else
                   let c =
                     Float.compare a.Cache.Store.c_expires
                       b.Cache.Store.c_expires
                   in
                   if c <> 0 then c
                   else
                     String.compare
                       a.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key
                       b.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key)
        in
        List.iter
          (fun (cand : Cache.Store.candidate) ->
            if !credit >= 1. && nd.up && not nd.stop then
              if
                refresh_entry c nd
                  cand.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key
              then credit := !credit -. 1.)
          worthwhile
      end;
      loop ()
    end
  in
  loop ()

(* Nagle timer for the batching layer: transmit whatever the outbound
   buffer holds every [period] seconds, so a buffered update never waits
   longer than one period for the size threshold. A crashed node's buffer
   was already cleared by [crash], so skipping while down loses nothing. *)
let batch_flusher c nd ~period =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay period;
      if nd.up && not nd.stop && nd.batch_buf <> [] then
        (* Its own root tree: a batch mixes updates from several requests,
           so no single request can claim the flush. *)
        with_span c nd "batch.flush" (fun () -> flush c nd);
      loop ()
    end
  in
  loop ()

(* Cumulative cluster signals for the health monitor, read at each
   telemetry tick. All are O(nodes) counter/length reads. *)
let health_signals c =
  let hits = ref 0 and lookups = ref 0 and depth = ref 0 in
  Array.iter
    (fun nd ->
      hits :=
        !hits
        + Metrics.Counter.get nd.counters K.hit_local
        + Metrics.Counter.get nd.counters K.hit_remote;
      lookups := !lookups + Metrics.Counter.get nd.counters K.requests;
      depth := !depth + Sim.Mailbox.length nd.listen)
    c.nodes;
  {
    Metrics.Health.hits = float_of_int !hits;
    lookups = float_of_int !lookups;
    queue_depth = float_of_int !depth /. float_of_int (Array.length c.nodes);
    stale_count = float_of_int (Metrics.Histogram.count c.staleness);
    stale_total = Metrics.Histogram.total c.staleness;
  }

(* The flight recorder's sampler: one cluster-level daemon reading every
   probe and closing a health window each telemetry interval. Same
   shutdown discipline as the per-node daemons ([stop] raises the flag,
   the loop exits at its next wake-up, the queue drains). *)
let telemetry_daemon c tel ~interval =
  let rec loop () =
    if not tel.t_stop then begin
      Sim.Engine.delay interval;
      if not tel.t_stop then begin
        let now = Sim.Engine.now () in
        Metrics.Registry.sample tel.t_registry ~time:now;
        Metrics.Health.tick tel.t_health ~now (health_signals c)
      end;
      loop ()
    end
  in
  loop ()

let start c =
  (match c.telemetry with
  | None -> ()
  | Some tel ->
      let interval = Metrics.Registry.interval tel.t_registry in
      Sim.Engine.spawn c.engine (fun () -> telemetry_daemon c tel ~interval));
  Array.iter
    (fun nd ->
      for _ = 1 to c.cfg.Config.threads_per_node do
        Sim.Engine.spawn c.engine (fun () -> request_thread c nd)
      done;
      match c.cfg.Config.cache_mode with
      | Config.Disabled -> ()
      | Config.Standalone ->
          Sim.Engine.spawn c.engine (fun () -> purge_daemon c nd);
          if c.cfg.Config.refresh_budget > 0. then
            Sim.Engine.spawn c.engine (fun () ->
                refresh_daemon c nd ~budget:c.cfg.Config.refresh_budget
                  ~interval:c.cfg.Config.refresh_interval)
      | Config.Cooperative ->
          Sim.Engine.spawn c.engine (fun () -> info_daemon c nd);
          Sim.Engine.spawn c.engine (fun () -> data_server c nd);
          Sim.Engine.spawn c.engine (fun () -> purge_daemon c nd);
          if c.cfg.Config.refresh_budget > 0. then
            Sim.Engine.spawn c.engine (fun () ->
                refresh_daemon c nd ~budget:c.cfg.Config.refresh_budget
                  ~interval:c.cfg.Config.refresh_interval);
          if sharded c then begin
            Sim.Engine.spawn c.engine (fun () -> lookup_server c nd);
            if c.cfg.Config.hotspot_threshold > 0. then
              Sim.Engine.spawn c.engine (fun () ->
                  hotspot_sweeper c nd ~period:c.cfg.Config.hotspot_window)
          end;
          (match (c.cfg.Config.batch_max, c.cfg.Config.batch_flush_interval)
           with
          | n, Some period when n > 1 ->
              Sim.Engine.spawn c.engine (fun () ->
                  batch_flusher c nd ~period)
          | _ -> ());
          (match c.cfg.Config.anti_entropy_period with
          | None -> ()
          | Some period ->
              Sim.Engine.spawn c.engine (fun () -> sync_responder c nd);
              Sim.Engine.spawn c.engine (fun () ->
                  anti_entropy_daemon c nd ~period)))
    c.nodes;
  (* Schedule the fault plan's crash/restart instants as plain events; the
     handles are kept so [stop] can cancel whatever has not yet fired. *)
  match c.fault with
  | None -> ()
  | Some f ->
      let now = Sim.Engine.current_time c.engine in
      Array.iter
        (fun nd ->
          List.iter
            (fun (down_at, up_at) ->
              if down_at >= now then
                c.fault_handles <-
                  Sim.Engine.schedule_at c.engine down_at (fun () ->
                      crash nd;
                      emit_instant c ~track:nd.id "crash";
                      if sharded c then shard_handoff c ~died:nd.id ())
                  :: c.fault_handles;
              if up_at >= now then
                c.fault_handles <-
                  Sim.Engine.schedule_at c.engine up_at (fun () ->
                      restart nd;
                      emit_instant c ~track:nd.id "restart";
                      (* the ring hands the node's keys back: peers prune
                         and re-announce, repopulating its empty shard *)
                      if sharded c then shard_handoff c ())
                  :: c.fault_handles)
            (Sim.Fault.schedule f ~node:nd.id))
        c.nodes;
      (* Each partition's heal instant is observable: node 0 counts it, so
         experiments can report how many splits a run actually saw end. *)
      List.iter
        (fun (p : Sim.Fault.partition) ->
          if p.Sim.Fault.heal_at >= now then
            c.fault_handles <-
              Sim.Engine.schedule_at c.engine p.Sim.Fault.heal_at (fun () ->
                  incr c.nodes.(0) K.partitions_healed;
                  emit_instant c ~track:0 "partition.heal";
                  (* announcements dropped at the cut are unrecoverable
                     point-to-point losses; re-announce everything *)
                  if sharded c then shard_handoff c ())
              :: c.fault_handles)
        (Sim.Fault.partitions f)

let stop c =
  Array.iter (fun nd -> nd.stop <- true) c.nodes;
  (match c.telemetry with None -> () | Some tel -> tel.t_stop <- true);
  (* Cancel pending crash/restart events: without this a fault plan whose
     horizon outlives the workload would keep the engine ticking long after
     the last client finished. *)
  List.iter Sim.Engine.cancel c.fault_handles;
  c.fault_handles <- []

let submit c ~client ~node req =
  if node < 0 || node >= Array.length c.nodes then
    invalid_arg "Server.submit: node out of range";
  let nd = c.nodes.(node) in
  let span = span_of c in
  Sim.Net.transfer c.net ~src:client ~dst:node
    ~bytes:(Http.Request.wire_size req);
  Sim.Engine.suspend (fun resume ->
      Sim.Mailbox.send nd.listen { req; client; resume; span })

let submit_wire c ~client ~node bytes =
  match Http.Request.parse bytes with
  | Error e ->
      Http.Response.to_wire (Http.Response.error Http.Status.Bad_request e)
  | Ok req -> Http.Response.to_wire (submit c ~client ~node req)

let preload c ~node req ~exec_time =
  if node < 0 || node >= Array.length c.nodes then
    invalid_arg "Server.preload: node out of range";
  let nd = c.nodes.(node) in
  let key = Http.Request.cache_key req in
  match Cgi.Registry.resolve c.registry req.Http.Request.uri.Http.Uri.path with
  | Some (Cgi.Registry.Cgi_script script) ->
      let out_bytes =
        Cgi.Cost.output_bytes_for script.Cgi.Script.cost
          ~query:req.Http.Request.uri.Http.Uri.query
      in
      let body = Cgi.Script.body script ~key ~bytes:out_bytes in
      let ctl = cache_ctl_for c script Http.Meth.Get in
      let msgs = insert_result c nd ~key ~body ~exec_time ctl.ttl in
      send_broadcasts c nd msgs
  | Some (Cgi.Registry.Static_file _) | None ->
      invalid_arg "Server.preload: request does not resolve to a CGI script"

(* ------------------------------------------------------------------ *)
(* Invalidation (the paper's §4.2 future work: application-driven
   invalidation messages and source-monitoring invalidation) *)

let delete_everywhere c pred =
  let removed = ref 0 in
  Array.iter
    (fun nd ->
      let victims = Cache.Store.remove_matching nd.store pred in
      List.iter
        (fun (m : Cache.Meta.t) ->
          incr nd K.invalidations;
          removed := !removed + 1;
          if not (sharded c) then
            ignore
              (Cache.Directory.delete (rdir nd) ~node:nd.id m.Cache.Meta.key
                : bool);
          if c.cfg.Config.cache_mode = Config.Cooperative then
            send_broadcasts c nd
              [ Cluster.Msg.Delete { node = nd.id; key = m.Cache.Meta.key } ])
        victims)
    c.nodes;
  !removed

let invalidate c ~key = delete_everywhere c (String.equal key)

let invalidate_script c ~script =
  (* Cache keys are "METHOD /script?args"; match on the script path
     component so every argument combination is dropped. *)
  let pred key =
    match String.index_opt key ' ' with
    | None -> false
    | Some i ->
        let rest = String.sub key (i + 1) (String.length key - i - 1) in
        let path =
          match String.index_opt rest '?' with
          | None -> rest
          | Some j -> String.sub rest 0 j
        in
        String.equal path script
  in
  delete_everywhere c pred

let node_active nd = nd.active
let node_up nd = nd.up
let fault c = c.fault
let staleness_histogram c = c.staleness

(* Fold each node's directory hint statistics into its counters. Not
   cumulative-safe: call once, after the run, before reading counters
   (the runner does). No-op counters stay absent when hints are off, so
   hint-less runs keep the pre-hint counter set. *)
let record_hint_stats c =
  if not (sharded c) then
    Array.iter
      (fun nd ->
        let saved, false_hints = Cache.Directory.hint_stats (rdir nd) in
        if saved > 0 then
          Metrics.Counter.add nd.counters K.hint_probes_saved saved;
        if false_hints > 0 then
          Metrics.Counter.add nd.counters K.hint_false false_hints)
      c.nodes

(* Fold the sharded plane's host-side collector statistics (lookup-cache
   outcomes) into counters. Like [record_hint_stats]: once, after the
   run; counters stay absent on the replicated plane or when zero. *)
let record_shard_stats c =
  if sharded c then
    Array.iter
      (fun nd ->
        match (shard_state nd).MP.Sharded.lcache with
        | None -> ()
        | Some lc ->
            let pos, neg, _misses, evictions = Cache.Lookup_cache.stats lc in
            if pos > 0 then
              Metrics.Counter.add nd.counters K.lcache_pos_hits pos;
            if neg > 0 then
              Metrics.Counter.add nd.counters K.lcache_neg_hits neg;
            if evictions > 0 then
              Metrics.Counter.add nd.counters K.lcache_evictions evictions)
      c.nodes

let hit_latency c = c.hit_latency
let forward_wait_histogram c = c.fwd_wait

(* ------------------------------------------------------------------ *)
(* Flight recorder accessors *)

let telemetry_registry c =
  Option.map (fun tel -> tel.t_registry) c.telemetry

let health c = Option.map (fun tel -> tel.t_health) c.telemetry

(* Fed by the cluster runner at each request completion. Pure host-side
   accumulation (plus the health monitor's window counters), so the
   request path is untouched when telemetry is off and unperturbed when
   it is on. *)
let observe_response c dt =
  match c.telemetry with
  | None -> ()
  | Some tel ->
      tel.t_resp_n <- tel.t_resp_n +. 1.;
      tel.t_resp_sum <- tel.t_resp_sum +. dt;
      Metrics.Health.observe_response tel.t_health dt
