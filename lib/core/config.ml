type cache_mode = Disabled | Standalone | Cooperative

let cache_mode_to_string = function
  | Disabled -> "no-cache"
  | Standalone -> "standalone"
  | Cooperative -> "cooperative"

type consistency = Weak | Strong

type dir_mode = Replicated | Sharded

let dir_mode_to_string = function
  | Replicated -> "replicated"
  | Sharded -> "sharded"

type server_model = {
  model_name : string;
  accept_cost : float;
  per_request_fork : float;
  per_byte_send : float;
  cgi_overhead_factor : float;
  contention_coeff : float;
}

(* Swala: threaded, memory-mapped I/O — cheap per-byte path and little
   per-connection bookkeeping. *)
let swala_model =
  {
    model_name = "swala";
    accept_cost = 0.0015;
    per_request_fork = 0.;
    per_byte_send = 2.5e-8;
    cgi_overhead_factor = 1.0;
    contention_coeff = 2e-5;
  }

(* NCSA HTTPd: a process per request (the paper names this as the reason it
   trails threaded servers by 2-7x), double-buffered writes. *)
let httpd_model =
  {
    model_name = "httpd";
    accept_cost = 0.002;
    per_request_fork = 0.008;
    per_byte_send = 6e-8;
    cgi_overhead_factor = 1.0;
    contention_coeff = 8e-5;
  }

(* Netscape Enterprise: fastest accept path (wins at low client counts) but
   more per-connection bookkeeping (loses at high counts) and a slower CGI
   interface (slowest bar in the paper's Figure 3). *)
let enterprise_model =
  {
    model_name = "enterprise";
    accept_cost = 0.0010;
    per_request_fork = 0.;
    per_byte_send = 2.5e-8;
    cgi_overhead_factor = 1.6;
    contention_coeff = 4e-5;
  }

let local_fetch_cost = 0.004
let remote_fetch_cost = 0.0055
let data_server_cost = 0.002
let insert_cost = 0.002
let info_apply_cost = 0.0001
let dir_lock_overhead = 2e-6
let fs_cache_hit = 0.95

type t = {
  n_nodes : int;
  threads_per_node : int;
  cores_per_node : int;
  cpu_speed : float;
  model : server_model;
  cache_mode : cache_mode;
  cache_capacity : int;
  policy : Cache.Policy.t;
  consistency : consistency;
  rules : Rules.t;
  cache_threshold : float;
  default_ttl : float option;
  purge_interval : float;
  dir_granularity : Cache.Directory.granularity;
  dir_scan_cost : float;
  net_latency : float;
  net_bandwidth : float;
  net_loss : float;
  fetch_timeout : float option;
  fetch_retries : int;
  fetch_backoff : float;
  fault : Sim.Fault.profile option;
  anti_entropy_period : float option;
  broadcast_latency : float option;
  batch_max : int;
  batch_flush_interval : float option;
  dir_hints : bool;
  dir_mode : dir_mode;
  shard_vnodes : int;
  shard_lookup_cache : int;
  shard_pos_ttl : float;
  shard_neg_ttl : float;
  hotspot_threshold : float;
  hotspot_window : float;
  hotspot_replicas : int;
  freshness : Cache.Freshness.mode;
  freshness_min_ttl : float;
  freshness_max_ttl : float;
  freshness_penalty : float;
  freshness_window : float;
  refresh_budget : float;
  refresh_interval : float;
  scenario : Workload.Scenario.t option;
  trace : bool;
  telemetry_interval : float option;
  slo_target : float option;
  slo_objective : float;
  seed : int;
}

let default =
  {
    n_nodes = 1;
    threads_per_node = 16;
    cores_per_node = 1;
    cpu_speed = 1.0;
    model = swala_model;
    cache_mode = Cooperative;
    cache_capacity = 2000;
    policy = Cache.Policy.Lru;
    consistency = Weak;
    rules = Rules.empty;
    cache_threshold = 0.1;
    default_ttl = None;
    purge_interval = 5.0;
    dir_granularity = Cache.Directory.Per_table;
    dir_scan_cost = 0.;
    net_latency = 0.0002;
    net_bandwidth = 12.5e6;
    net_loss = 0.;
    fetch_timeout = None;
    fetch_retries = 0;
    fetch_backoff = 2.;
    fault = None;
    anti_entropy_period = None;
    broadcast_latency = None;
    batch_max = 1;
    batch_flush_interval = None;
    dir_hints = false;
    dir_mode = Replicated;
    shard_vnodes = 64;
    shard_lookup_cache = 128;
    shard_pos_ttl = 5.0;
    shard_neg_ttl = 0.5;
    hotspot_threshold = 0.;
    hotspot_window = 2.0;
    hotspot_replicas = 2;
    freshness = Cache.Freshness.Fixed;
    freshness_min_ttl = 0.25;
    freshness_max_ttl = 120.;
    freshness_penalty = 0.01;
    freshness_window = 2.0;
    refresh_budget = 0.;
    refresh_interval = 0.5;
    scenario = None;
    trace = false;
    telemetry_interval = None;
    slo_target = None;
    slo_objective = 0.95;
    seed = 42;
  }

let make ?(n_nodes = default.n_nodes)
    ?(threads_per_node = default.threads_per_node)
    ?(cores_per_node = default.cores_per_node) ?(cpu_speed = default.cpu_speed)
    ?(model = default.model) ?(cache_mode = default.cache_mode)
    ?(cache_capacity = default.cache_capacity) ?(policy = default.policy)
    ?(consistency = default.consistency) ?(rules = default.rules)
    ?(cache_threshold = default.cache_threshold)
    ?(default_ttl = default.default_ttl)
    ?(purge_interval = default.purge_interval)
    ?(dir_granularity = default.dir_granularity)
    ?(dir_scan_cost = default.dir_scan_cost)
    ?(net_latency = default.net_latency)
    ?(net_bandwidth = default.net_bandwidth) ?(net_loss = default.net_loss)
    ?(fetch_timeout = default.fetch_timeout)
    ?(fetch_retries = default.fetch_retries)
    ?(fetch_backoff = default.fetch_backoff) ?(fault = default.fault)
    ?(anti_entropy_period = default.anti_entropy_period)
    ?(broadcast_latency = default.broadcast_latency)
    ?(batch_max = default.batch_max)
    ?(batch_flush_interval = default.batch_flush_interval)
    ?(dir_hints = default.dir_hints) ?(dir_mode = default.dir_mode)
    ?(shard_vnodes = default.shard_vnodes)
    ?(shard_lookup_cache = default.shard_lookup_cache)
    ?(shard_pos_ttl = default.shard_pos_ttl)
    ?(shard_neg_ttl = default.shard_neg_ttl)
    ?(hotspot_threshold = default.hotspot_threshold)
    ?(hotspot_window = default.hotspot_window)
    ?(hotspot_replicas = default.hotspot_replicas)
    ?(freshness = default.freshness)
    ?(freshness_min_ttl = default.freshness_min_ttl)
    ?(freshness_max_ttl = default.freshness_max_ttl)
    ?(freshness_penalty = default.freshness_penalty)
    ?(freshness_window = default.freshness_window)
    ?(refresh_budget = default.refresh_budget)
    ?(refresh_interval = default.refresh_interval)
    ?(scenario = default.scenario)
    ?(trace = default.trace)
    ?(telemetry_interval = default.telemetry_interval)
    ?(slo_target = default.slo_target)
    ?(slo_objective = default.slo_objective) ?(seed = default.seed) () =
  {
    n_nodes;
    threads_per_node;
    cores_per_node;
    cpu_speed;
    model;
    cache_mode;
    cache_capacity;
    policy;
    consistency;
    rules;
    cache_threshold;
    default_ttl;
    purge_interval;
    dir_granularity;
    dir_scan_cost;
    net_latency;
    net_bandwidth;
    net_loss;
    fetch_timeout;
    fetch_retries;
    fetch_backoff;
    fault;
    anti_entropy_period;
    broadcast_latency;
    batch_max;
    batch_flush_interval;
    dir_hints;
    dir_mode;
    shard_vnodes;
    shard_lookup_cache;
    shard_pos_ttl;
    shard_neg_ttl;
    hotspot_threshold;
    hotspot_window;
    hotspot_replicas;
    freshness;
    freshness_min_ttl;
    freshness_max_ttl;
    freshness_penalty;
    freshness_window;
    refresh_budget;
    refresh_interval;
    scenario;
    trace;
    telemetry_interval;
    slo_target;
    slo_objective;
    seed;
  }

let validate t =
  let check cond msg = if not cond then invalid_arg ("Config: " ^ msg) in
  check (t.n_nodes >= 1) "n_nodes must be >= 1";
  check (t.threads_per_node >= 1) "threads_per_node must be >= 1";
  check (t.cores_per_node >= 1) "cores_per_node must be >= 1";
  check (t.cpu_speed > 0.) "cpu_speed must be positive";
  check (t.cache_capacity >= 1) "cache_capacity must be >= 1";
  check (t.cache_threshold >= 0.) "cache_threshold must be >= 0";
  check (t.purge_interval > 0.) "purge_interval must be positive";
  check (t.net_bandwidth > 0.) "net_bandwidth must be positive";
  check (t.net_latency >= 0.) "net_latency must be >= 0";
  (match t.default_ttl with
  | Some ttl -> check (ttl > 0.) "default_ttl must be positive"
  | None -> ());
  (match t.broadcast_latency with
  | Some d -> check (d >= 0.) "broadcast_latency must be >= 0"
  | None -> ());
  (match t.anti_entropy_period with
  | Some p -> check (p > 0.) "anti_entropy_period must be positive"
  | None -> ());
  check (t.net_loss >= 0. && t.net_loss <= 1.) "net_loss must be in [0,1]";
  check (t.fetch_retries >= 0) "fetch_retries must be >= 0";
  check (t.fetch_backoff >= 1.) "fetch_backoff must be >= 1";
  (match t.fault with Some p -> Sim.Fault.validate p | None -> ());
  (match t.scenario with
  | Some sc -> Workload.Scenario.validate sc
  | None -> ());
  let lossy =
    t.net_loss > 0.
    || match t.fault with Some p -> Sim.Fault.is_lossy p | None -> false
  in
  (match t.fetch_timeout with
  | Some d -> check (d > 0.) "fetch_timeout must be positive"
  | None ->
      check (not lossy)
        "message loss or node crashes require a fetch_timeout (lost \
         replies would wedge request threads)");
  if t.consistency = Strong then
    check (not lossy)
      "the strong protocol has no ack retransmission; it tolerates neither \
       net_loss nor a lossy fault profile";
  check (t.batch_max >= 1) "batch_max must be >= 1";
  (match t.batch_flush_interval with
  | Some d -> check (d > 0.) "batch_flush_interval must be positive"
  | None -> ());
  if t.batch_max > 1 then begin
    check
      (t.batch_flush_interval <> None)
      "batch_max > 1 requires a batch_flush_interval (buffered updates \
       would otherwise wait for the size threshold forever)";
    check (t.consistency = Weak)
      "update batching applies only to the weak protocol (the strong \
       protocol acknowledges each update synchronously)"
  end;
  check (t.shard_vnodes >= 1) "shard_vnodes must be >= 1";
  check (t.shard_lookup_cache >= 0) "shard_lookup_cache must be >= 0";
  check (t.shard_pos_ttl > 0.) "shard_pos_ttl must be positive";
  check (t.shard_neg_ttl > 0.) "shard_neg_ttl must be positive";
  check (t.hotspot_threshold >= 0.) "hotspot_threshold must be >= 0";
  check (t.hotspot_window > 0.) "hotspot_window must be positive";
  check (t.hotspot_replicas >= 0) "hotspot_replicas must be >= 0";
  if t.dir_mode = Sharded then begin
    check (t.consistency = Weak)
      "the sharded metadata plane implements only the weak protocol (point-\
       to-point announcements carry no acknowledgements)";
    check (t.batch_max <= 1)
      "update batching amortizes broadcast fan-out; the sharded plane sends \
       point-to-point updates, so batch_max must be 1";
    check (not t.dir_hints)
      "the hint index accelerates the replicated per-owner table scan; the \
       sharded plane has a single partitioned table, so dir_hints must be off";
    check
      (t.anti_entropy_period = None)
      "anti-entropy repairs replicated directory divergence; the sharded \
       plane repairs by shard handoff re-announcement instead";
    check
      (t.broadcast_latency = None)
      "broadcast_latency models broadcast propagation; the sharded plane \
       does not broadcast"
  end
  else
    check (t.hotspot_threshold = 0.)
      "hotspot_threshold requires dir_mode = Sharded (replicated mode \
       already holds every entry on every node)";
  check (t.freshness_min_ttl > 0.) "freshness_min_ttl must be positive";
  check
    (t.freshness_max_ttl >= t.freshness_min_ttl)
    "freshness_max_ttl must be >= freshness_min_ttl";
  check (t.freshness_penalty > 0.) "freshness_penalty must be positive";
  check (t.freshness_window > 0.) "freshness_window must be positive";
  check (t.refresh_budget >= 0.) "refresh_budget must be >= 0";
  check (t.refresh_interval > 0.) "refresh_interval must be positive";
  if t.freshness = Cache.Freshness.Adaptive then
    check
      (t.cache_mode <> Disabled)
      "adaptive freshness controls cache TTLs; it requires a cache \
       (cache_mode must not be no-cache)";
  if t.refresh_budget > 0. then
    check
      (t.cache_mode <> Disabled)
      "proactive refresh re-executes cached entries; it requires a cache \
       (cache_mode must not be no-cache)";
  (match t.telemetry_interval with
  | Some dt -> check (dt > 0.) "telemetry_interval must be positive"
  | None -> ());
  (match t.slo_target with
  | Some s ->
      check (s > 0.) "slo_target must be positive";
      check
        (t.telemetry_interval <> None)
        "slo_target drives the health monitor, which runs on the telemetry \
         cadence; set a telemetry_interval"
  | None -> ());
  check
    (t.slo_objective > 0. && t.slo_objective < 1.)
    "slo_objective must be in (0,1)";
  check (t.dir_scan_cost >= 0.) "dir_scan_cost must be >= 0"
