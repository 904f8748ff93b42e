(** Swala server and experiment configuration.

    The cost constants parameterise the simulated substrate. They are
    calibrated so that an unloaded reference node reproduces the paper's
    measured scale: file fetches of a few milliseconds, CGI start-up
    (fork + exec) around 30 ms, CGI executions of 0.1-10 s, and cache
    fetches an order of magnitude cheaper than re-execution. Experiments
    compare configurations, so shapes — orderings, ratios, crossovers —
    are what these constants are tuned for (see EXPERIMENTS.md). *)

type cache_mode =
  | Disabled  (** execute every CGI; the no-cache baseline *)
  | Standalone  (** each node caches privately; no directory traffic *)
  | Cooperative  (** replicated directory + remote fetch (the paper) *)

val cache_mode_to_string : cache_mode -> string

(** Inter-node directory consistency. [Weak] is the paper's protocol:
    updates are broadcast asynchronously and replicas may briefly diverge.
    [Strong] makes every insert/delete wait for acknowledgement from every
    peer before the client is answered — the commit-style protocol §4.2
    rejects; it exists to measure what that rejection saves. *)
type consistency = Weak | Strong

(** Which metadata plane keeps track of who caches what. [Replicated] is
    the paper's design: every node holds a full copy of the directory and
    every update is broadcast — O(n) memory per node, O(n) messages per
    update. [Sharded] partitions the directory over a consistent-hash
    ring: each key has one home node, updates are point-to-point
    announcements to the home, and lookups from other nodes are forwarded
    over the network (with a small positive/negative lookup cache in
    front). See {!Replicated_plane}, {!Sharded_plane} and
    docs/METADATA_PLANE.md. *)
type dir_mode = Replicated | Sharded

val dir_mode_to_string : dir_mode -> string

(** Cost profile of a server implementation. Three models reproduce the
    paper's comparison: Swala (threaded, memory-mapped I/O), NCSA
    HTTPd-like (process per request) and Netscape Enterprise-like
    (threaded; cheapest accept path but more per-connection bookkeeping,
    and a slower CGI interface). *)
type server_model = {
  model_name : string;
  accept_cost : float;  (** CPU s per request: accept, parse, dispatch *)
  per_request_fork : float;  (** CPU s to fork a handler process (HTTPd) *)
  per_byte_send : float;  (** CPU s per body byte written to the client *)
  cgi_overhead_factor : float;  (** multiplier on a script's fork+exec cost *)
  contention_coeff : float;
      (** extra CPU s per concurrently-active request, modelling
          per-connection bookkeeping/locking that grows with load *)
}

val swala_model : server_model
val httpd_model : server_model
val enterprise_model : server_model

(** {1 Calibrated constants}

    The cacher's own costs and the file-system cache hit rate are
    calibrated once, like the server models, and so are the daemon
    periods and the fetch backoff below; no experiment varies them (the
    paper's evaluation varies clients, nodes, cache size and the
    execution-time threshold). [cores_per_node], [cpu_speed] and
    [net_bandwidth] are never varied either, but they stay fields of {!t}
    because the layer kernels of [bench/perf] read them from a
    configuration. *)

(** CPU s to open+map a cached result file *)
val local_fetch_cost : float

(** CPU s on the requester to run the remote-fetch protocol *)
val remote_fetch_cost : float

(** CPU s on the owner to serve one fetch *)
val data_server_cost : float

(** CPU s to create the entry + result file *)
val insert_cost : float

(** CPU s to apply one directory update *)
val info_apply_cost : float

(** s per directory lock acquisition *)
val dir_lock_overhead : float

(** P(static file is in the OS buffer cache) *)
val fs_cache_hit : float

(** s between purge-daemon wake-ups *)
val purge_interval : float

(** multiplier applied to the fetch timeout on each retry (exponential
    backoff) *)
val fetch_backoff : float

(** s between refresh-daemon scans; each scans entries expiring within
    twice this horizon *)
val refresh_interval : float

(** {1 Configuration} *)

type t = {
  n_nodes : int;
  threads_per_node : int;  (** request-thread pool size (HTTP module) *)
  cores_per_node : int;
  cpu_speed : float;
  model : server_model;
  cache_mode : cache_mode;
  cache_capacity : int;  (** entries per node *)
  policy : Cache.Policy.t;
  consistency : consistency;
  rules : Rules.t;
      (** administrator cacheability rules (§4.1's configuration file);
          a rule's decision composes with the script's own [cacheable]
          flag, and its ttl/threshold attributes override the defaults *)
  cache_threshold : float;
      (** only results whose execution took at least this many seconds are
          cached (the paper's runtime-defined limit) *)
  default_ttl : float option;  (** TTL for scripts that don't set one *)
  dir_granularity : Cache.Directory.granularity;
  dir_scan_cost : float;
      (** s per table entry examined while holding the directory lock
          (default 0; raised by the locking ablation) *)
  net_latency : float;
  net_bandwidth : float;
  fetch_timeout : float option;
      (** how long a request thread waits for a remote-fetch reply before
          giving up, purging the owner's directory table and executing the
          CGI locally; positive and finite ([None] = forever, safe only
          without a lossy [fault] profile) *)
  fetch_retries : int;
      (** how many times a timed-out remote fetch is retried, each
          attempt waiting {!fetch_backoff} times longer, before the node
          falls back to local execution (default [0]: fail over
          immediately, the pre-retry behaviour) *)
  fault : Sim.Fault.profile option;
      (** fault-injection plan: per-link message drop and per-node
          crash/restart behaviour, instantiated deterministically from
          [seed]. [None] (the default) leaves the fault layer entirely out
          of the run. The plan is the only source of lost messages. A
          lossy profile requires [fetch_timeout], and the [Strong]
          protocol (no ack retransmission) tolerates no faults *)
  anti_entropy_period : float option;
      (** if set (cooperative mode only), every node runs an anti-entropy
          daemon: once per period it exchanges per-table directory digests
          with one seeded-random peer and pulls the entries it is missing
          or holds stale, so replicas provably reconverge after a
          partition heals or a mid-broadcast crash — instead of relying
          only on the lazy suspect purge. [None] (the default) disables
          the daemon and leaves runs byte-identical to builds without it *)
  broadcast_latency : float option;
      (** if set, directory-update broadcasts are delivered after this
          delay instead of the network latency — models slow or batched
          propagation of the weak-consistency protocol (ablation A3) *)
  batch_max : int;
      (** directory updates buffered per node before a size-triggered
          flush. [1] (the default) disables batching: every update is
          transmitted immediately, bare, exactly as before the batching
          layer existed. [> 1] requires [batch_flush_interval] and the
          [Weak] protocol *)
  batch_flush_interval : float option;
      (** Nagle-style timer: with [batch_max > 1], a flusher daemon per
          node transmits whatever the outbound buffer holds every this
          many seconds, bounding how stale a buffered update can get *)
  dir_hints : bool;
      (** maintain a key→owner-set hint index in each directory replica
          so lookups probe only hinted tables (stale-tolerant; false
          hints fall back to the full scan). Default [false] *)
  dir_mode : dir_mode;
      (** which metadata plane to run. [Replicated] (the default) is the
          paper's full-replication directory and is byte-identical to the
          pre-plane builds; [Sharded] requires the [Weak] protocol and is
          incompatible with batching, hints, anti-entropy and
          [broadcast_latency] (each is a replication-specific mechanism) *)
  shard_vnodes : int;
      (** virtual nodes per physical node on the consistent-hash ring
          (sharded mode). More vnodes smooth the key distribution at the
          cost of a larger (still O(n·vnodes)) static ring. Default 64 *)
  shard_lookup_cache : int;
      (** capacity of the per-node positive/negative lookup cache that
          fronts forwarded directory lookups; [0] disables it (every
          non-home lookup is forwarded). Default 128 *)
  shard_pos_ttl : float;
      (** seconds a positive lookup-cache entry is trusted. Bounds how
          long a node may keep fetching from an owner that has dropped
          the entry (the false-hit window). Default 5 s *)
  shard_neg_ttl : float;
      (** seconds a negative lookup-cache entry is trusted. Bounds how
          long a node may re-execute a script another node has cached in
          the meantime (the false-miss window). Default 0.5 s *)
  hotspot_threshold : float;
      (** forwarded-lookup rate (lookups/s per key, measured by the shard
          home over [hotspot_window]) above which a key is promoted: its
          directory entry is pushed to [hotspot_replicas] ring successors
          so their local probes hit without forwarding. [0.] (the
          default) disables hotspot replication; positive values require
          [Sharded] *)
  hotspot_window : float;
      (** sliding-window length (s) of the hotspot rate estimator, and
          the period of the demotion sweep. Default 2 s *)
  hotspot_replicas : int;
      (** extra replica owners a promoted key's directory entry is pushed
          to (the k distinct ring successors of the home). Default 2 *)
  freshness : Cache.Freshness.mode;
      (** how TTLs are assigned to results whose rule and script set none.
          [Fixed] (the default) uses [default_ttl] — byte-identical to
          builds without the freshness layer. [Adaptive] runs a per-node
          {!Cache.Freshness} controller that picks a per-key TTL from the
          observed access rate and recompute cost; requires a cache.
          Rule and per-script TTLs always win over either layer *)
  freshness_min_ttl : float;
      (** lower clamp on controller-emitted TTLs (s). Default 0.25 *)
  freshness_max_ttl : float;
      (** upper clamp on controller-emitted TTLs (s). Default 120 *)
  freshness_penalty : float;
      (** staleness weight: serving one second of staleness across one
          access costs this many CPU-seconds in the controller's
          objective. Larger values push TTLs down. The default (0.01) is
          sized against this simulator's CGI demands (tens of
          milliseconds), giving a typical key seconds of TTL:
          [T* = sqrt(2 cost / (penalty rate))] *)
  freshness_window : float;
      (** sliding window (s) of the controller's per-key access-rate
          estimator, and the recency horizon of the refresh daemon's
          "hot" filter. Default 2 s *)
  refresh_budget : float;
      (** proactive refreshes per second per node the refresh daemon may
          spend re-executing hot, expensive, near-expiry entries off the
          critical path. [0.] (the default) disables the daemon entirely;
          positive values require a cache. Works under either freshness
          mode *)
  scenario : Workload.Scenario.t option;
      (** time-varying workload scenario (flash crowd, diurnal envelope,
          geo-tiered clients) the runner overlays on the replayed trace.
          [None] (the default) leaves the replay untouched — no scenario
          random numbers are drawn, no release-time pacing, no rewritten
          items, no per-tier latency — byte-identical to builds without
          the scenario layer. Rolling membership churn is configured on
          the {!Sim.Fault.profile} ([fault]) instead, since it is a
          membership fault, not a traffic shape *)
  trace : bool;
      (** record causal request spans and lock-wait histograms. Default
          [false]; tracing is observation-only, so every simulated
          quantity (counters, response times, replay digests) is
          byte-identical with it on or off *)
  telemetry_interval : float option;
      (** flight-recorder cadence (s): if set, a sampler daemon reads the
          cluster's telemetry probes ({!Metrics.Registry}) every this many
          virtual seconds and the health monitor ({!Metrics.Health}) runs
          on the same tick. [None] (the default) allocates none of it —
          like [trace], the plane is observation-only and a disabled run
          is byte-identical to builds without it (the sampler does add
          engine events, so [n_events] differs when {e enabled}) *)
  slo_target : float option;
      (** response-time SLO target (s) for the health monitor's burn-rate
          detector, which expects 95 % of requests to meet it; requires
          [telemetry_interval]. [None] (the default) leaves the burn
          detector off *)
  seed : int;
}

(** [default] is [make ()]: a single cooperative Swala node with a
    2000-entry LRU cache, 16 request threads, and the calibrated cost
    constants. *)
val default : t

(** [make ?...] overrides fields of {!default}; its optional arguments
    hold the only copy of each default. *)
val make :
  ?n_nodes:int ->
  ?threads_per_node:int ->
  ?cores_per_node:int ->
  ?cpu_speed:float ->
  ?model:server_model ->
  ?cache_mode:cache_mode ->
  ?cache_capacity:int ->
  ?policy:Cache.Policy.t ->
  ?consistency:consistency ->
  ?rules:Rules.t ->
  ?cache_threshold:float ->
  ?default_ttl:float option ->
  ?dir_granularity:Cache.Directory.granularity ->
  ?dir_scan_cost:float ->
  ?net_latency:float ->
  ?net_bandwidth:float ->
  ?fetch_timeout:float option ->
  ?fetch_retries:int ->
  ?fault:Sim.Fault.profile option ->
  ?anti_entropy_period:float option ->
  ?broadcast_latency:float option ->
  ?batch_max:int ->
  ?batch_flush_interval:float option ->
  ?dir_hints:bool ->
  ?dir_mode:dir_mode ->
  ?shard_vnodes:int ->
  ?shard_lookup_cache:int ->
  ?shard_pos_ttl:float ->
  ?shard_neg_ttl:float ->
  ?hotspot_threshold:float ->
  ?hotspot_window:float ->
  ?hotspot_replicas:int ->
  ?freshness:Cache.Freshness.mode ->
  ?freshness_min_ttl:float ->
  ?freshness_max_ttl:float ->
  ?freshness_penalty:float ->
  ?freshness_window:float ->
  ?refresh_budget:float ->
  ?scenario:Workload.Scenario.t option ->
  ?trace:bool ->
  ?telemetry_interval:float option ->
  ?slo_target:float option ->
  ?seed:int ->
  unit ->
  t

(** [validate t] raises [Invalid_argument] on nonsensical settings. *)
val validate : t -> unit
