(** Drive a Swala cluster with a workload and collect metrics.

    Replays a {!Workload.Trace.t} through closed-loop client streams, the
    way WebStone and the paper's trace replays drive their servers: the
    trace is split round-robin over [n_streams] client threads (preserving
    each stream's relative order), stream [i] targets node [i mod n_nodes],
    and every stream issues its requests back-to-back, waiting for each
    response before sending the next. *)

type result = {
  response : Metrics.Sample.t;  (** client-observed response times *)
  cgi_response : Metrics.Sample.t;
  file_response : Metrics.Sample.t;
  counters : Metrics.Counter.t;  (** merged over all nodes *)
  per_node_counters : Metrics.Counter.t array;
  duration : float;  (** simulated makespan *)
  n_requests : int;
  hits : int;  (** local + remote cache hits *)
  hit_ratio : float;  (** hits over CGI requests *)
  utilisation : float array;  (** per-node CPU utilisation over [duration] *)
  dir_locks : int * int;
      (** (read, write) metadata-plane lock acquisitions summed over
          nodes (directory rwlocks or shard-table rwlocks) *)
  dir_mode : string;  (** ["replicated"] or ["sharded"], from the config *)
  dir_entries : int array;
      (** per-node metadata footprint at run end, in entries: the full
          replica (replicated) or shard partition + lookup cache
          (sharded) — the memory metric of the dirmode ablation;
          {!result_to_json} also prints it as a power-of-two histogram,
          ["shard_imbalance"] *)
  forward_wait : Metrics.Histogram.t;
      (** forwarded directory-lookup round-trip waits (sharded plane;
          empty under the replicated one) *)
  hit_latency : Metrics.Sample.t;
      (** cache-hit service times, lookup start to response sent — see
          {!Server.hit_latency} *)
  store_stats : Cache.Stats.t;  (** local-store statistics merged over nodes *)
  net_lost : int;
      (** protocol messages the fault plan dropped ({!Sim.Fault.drops});
          [0] on a healthy run *)
  net_lost_partition : int;
      (** the subset of [net_lost] discarded because an active partition
          separated the endpoints *)
  n_events : int;
      (** simulation events the engine executed during the run — the
          denominator of the wall-clock events/sec benchmark *)
  tracer : Metrics.Trace.t option;
      (** the causal tracer, when [cfg.trace] was set: one ["request"]
          root span per client request, with the server-side tree hanging
          off it *)
  wait_histograms : (string * Metrics.Histogram.t) list;
      (** cluster-wide contention histograms (see
          {!Server.wait_histograms}); empty when tracing is off *)
  tier_response : (string * Metrics.Sample.t) list;
      (** per-tier client response times on geo-tiered scenario runs
          ([cfg.scenario] with tiers), in tier order; empty otherwise *)
  freshness_mode : string;  (** ["fixed"] or ["adaptive"], from the config *)
  freshness_active : bool;
      (** whether the freshness plane was in play (adaptive TTLs or a
          refresh budget); gates the ["freshness"]/["staleness_s"] JSON
          keys so default payloads stay identical to older builds *)
  staleness : Metrics.Histogram.t;
      (** content ages at cache hits (seconds since entry creation) —
          recorded in every mode; the freshness ablation's staleness
          metric *)
  timelines : Metrics.Registry.t option;
      (** the flight recorder's probe timelines, when
          [cfg.telemetry_interval] was set; gates the ["timelines"] JSON
          section *)
  health : Metrics.Health.t option;
      (** the online health monitor (incident log), when telemetry was
          on; gates the ["incidents"] JSON section *)
}

val mean_response : result -> float

(** [result_to_json r] renders the run's metrics — counters, response-time
    summaries, utilisation, lock acquisitions, wait histograms — as one
    JSON object (no trailing newline). Statistics over empty samples
    render as [null]. *)
val result_to_json : result -> string

(** [run cfg ~trace ~n_streams ?warmup ?assign ?router ()] builds a fresh
    engine and cluster, replays [trace], and returns collected metrics.
    The cluster serves the synthetic scripts, the WebStone documents and
    the trace's own static files.

    [warmup] runs inside the simulation before any client starts (use it
    with [Server.preload] to warm caches). [assign] overrides the
    stream→node mapping (default [fun stream -> stream mod n_nodes]);
    [router] instead picks a node per request and takes precedence over
    [assign] when given.

    [observe] is called after every completed request with the completion
    time (simulated) and the response time — hook a [Metrics.Timeline]
    in to study transients such as cache warm-up (or bucket latencies per
    scenario phase).

    When [cfg.scenario] is set, the replay applies its overlays: items are
    held until their diurnal release times, flash-crowd redirection
    rewrites CGI items at submit time (counted in the
    ["scenario_flash_redirects"] counter), and geo tiers put extra latency
    on client links and split response times per tier
    (["tier_<name>_requests"] counters, [tier_response] samples). All
    scenario randomness comes from a dedicated salted root, so a run
    without a scenario is byte-identical to earlier builds.

    The run is deterministic given [cfg.seed] and the trace. *)
val run :
  Config.t ->
  trace:Workload.Trace.t ->
  n_streams:int ->
  ?warmup:(Server.cluster -> unit) ->
  ?assign:(int -> int) ->
  ?router:Router.policy ->
  ?observe:(time:float -> float -> unit) ->
  unit ->
  result
