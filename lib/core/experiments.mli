(** Drivers for every table and figure in the paper's evaluation (§3, §5),
    plus the ablations called out in DESIGN.md. A driver whose rows each
    compare several runs returns typed rows; a driver that runs once per
    swept point returns the points with their {!Cluster_runner.result}s.
    {!targets} renders either in the paper's layout, and EXPERIMENTS.md
    records paper-vs-measured.

    All drivers are deterministic in [seed]. *)

(** {1 Catalogue} *)

(** One piece of a target's printed output. The bench harness prints
    each block followed by a blank line. *)
type block =
  | Table of Metrics.Table.t
  | Text of string  (** one line between tables, e.g. a derived figure *)

type target = {
  name : string;  (** the [bench/main.exe] target, e.g. ["table5"] *)
  doc : string;  (** the one-line description [swala_sim list] prints *)
  output : jobs:int -> block list;
      (** runs the experiment at the default seed and renders it; [jobs]
          is the domain count of the sweep-parallel ablations (A11-A13),
          and every other target ignores it *)
}

(** Every paper table and figure (Tables 1-6, Figures 3-4), the
    ablations A1-A13 and the traced-replay breakdown, in run order. *)
val targets : target list

(** {1 E1 — Table 1: potential saving from CGI caching (§3)} *)

val table1 :
  ?seed:int ->
  ?params:Workload.Synthetic.adl_params ->
  ?thresholds:float list ->
  unit ->
  Workload.Analyzer.summary * Workload.Analyzer.row list

(** {1 E2 — Table 2: file-fetch response time by server (§5.1)} *)

type table2_row = {
  clients : int;
  httpd : float;
  enterprise : float;
  swala : float;
}

val table2 :
  ?seed:int ->
  ?clients:int list ->
  ?requests_per_client:int ->
  unit ->
  table2_row list

(** {1 E3 — Figure 3: null-CGI response time by configuration (§5.1)} *)

type figure3 = {
  enterprise_f3 : float;
  httpd_f3 : float;
  swala_no_cache : float;
  swala_remote : float;
  swala_local : float;
}

val figure3 :
  ?seed:int -> ?clients:int -> ?requests_per_client:int -> unit -> figure3

(** {1 E4 — Figure 4: multi-node response time, cache on/off (§5.2)} *)

type figure4_row = {
  nodes : int;
  no_cache : float;  (** mean response, caching disabled *)
  coop : float;  (** mean response, cooperative caching *)
  speedup_no_cache : float;  (** single-node no-cache over this row *)
  improvement : float;  (** (no_cache - coop) / no_cache *)
}

val figure4 :
  ?seed:int -> ?node_counts:int list -> ?n_requests:int -> unit ->
  figure4_row list

(** {1 E5 — Table 3: insert + broadcast overhead (§5.2)} *)

type table3_row = {
  nodes_t3 : int;
  no_cache_t3 : float;
  coop_t3 : float;
  increase_t3 : float;
}

val table3 :
  ?seed:int -> ?node_counts:int list -> ?n_requests:int -> unit ->
  table3_row list

(** {1 E6 — Table 4: replicated-directory maintenance overhead (§5.2)} *)

type table4_row = {
  ups : int;  (** directory updates per second received *)
  mean_response_t4 : float;
  increase_t4 : float;  (** over the 0-UPS base case *)
  updates_applied : int;
}

val table4 :
  ?seed:int -> ?ups_list:int list -> ?n_requests:int -> unit -> table4_row list

(** {1 E7/E8 — Tables 5-6: stand-alone vs cooperative hit counts (§5.3)} *)

type hit_row = {
  nodes_h : int;
  standalone_hits : int;
  coop_hits : int;
  upper_bound : int;
  standalone_pct : float;  (** of upper bound *)
  coop_pct : float;
  coop_false_misses : int;  (** concurrent + duplicate-insert false misses *)
}

(** [hit_ratio_table ~cache_size] runs the paper's 1600-request /
    1122-unique workload at each node count. Table 5 is
    [~cache_size:2000]; Table 6 is [~cache_size:20]. *)
val hit_ratio_table :
  ?seed:int ->
  ?node_counts:int list ->
  ?n:int ->
  ?n_unique:int ->
  cache_size:int ->
  unit ->
  hit_row list

(** {1 Ablations}

    A4 and A12 compare several runs per row and return typed rows. Every
    other ablation runs once per swept point and returns each point with
    that run's {!Cluster_runner.result}, in sweep order (a two-parameter
    point [(a, b)] varies [b] fastest). The drivers whose tables print
    hits as a share of the offline upper bound (A1, A5, A8) also return
    that bound, {!Workload.Analyzer.upper_bound_hits} of their trace. A7,
    protocol-message loss, is A8's no-crash column: the fault plan is the
    only source of lost messages. *)

(** {1 A1 — ablation: replacement policies under overflow} *)

(** [ablation_policy ()] runs the Table-5 workload once per policy of
    {!Cache.Policy.all}, with [cache_size] entries per node. *)
val ablation_policy :
  ?seed:int -> ?cache_size:int -> ?nodes:int -> unit ->
  int * (Cache.Policy.t * Cluster_runner.result) list

(** {1 A2 — ablation: directory locking granularity (§4.2's argument)} *)

(** [ablation_locking ()] runs an all-insert 5 ms CGI mix once per
    granularity (global, per-table, per-entry); the result's [dir_locks]
    counts the lock work. *)
val ablation_locking :
  ?seed:int -> ?nodes:int -> unit ->
  (Cache.Directory.granularity * Cluster_runner.result) list

(** {1 A3 — ablation: consistency anomalies vs network latency (§4.2)} *)

(** [ablation_consistency ()] runs the Table-5 workload with 50 ms CGIs
    once per directory-update delay in [latencies] (seconds). *)
val ablation_consistency :
  ?seed:int -> ?latencies:float list -> ?nodes:int -> unit ->
  (float * Cluster_runner.result) list

(** {1 A4 — ablation: weak vs strong directory consistency (§4.2)} *)

type protocol_row = {
  latency_pr : float;  (** one-way network latency of the run *)
  weak : float;  (** mean response under the paper's async protocol *)
  strong : float;  (** mean response when every update waits for acks *)
  penalty : float;  (** strong - weak, seconds per request *)
}

(** [ablation_protocol ()] runs the all-miss insertion workload under both
    protocols across network latencies — measuring exactly the
    synchronisation cost §4.2 declines to pay, and how it grows once the
    cluster is no longer a single LAN. *)
val ablation_protocol :
  ?seed:int -> ?nodes:int -> ?latencies:float list -> ?n_requests:int ->
  ?demand:float -> unit -> protocol_row list

(** {1 A5 — ablation: request routing policy} *)

(** [ablation_routing ()] crosses routing policies with stand-alone vs
    cooperative caching on the Table-5 workload: cache-affinity routing
    recovers most of cooperation's hit-ratio benefit without any
    inter-node protocol. Points are [(routing, cache mode)]. *)
val ablation_routing :
  ?seed:int -> ?nodes:int -> ?cache_size:int -> unit ->
  int * ((Router.policy * Config.cache_mode) * Cluster_runner.result) list

(** {1 A6 — ablation: caching threshold (§3's trade-off, end to end)} *)

(** [ablation_threshold ()] sweeps the runtime caching threshold at a
    large and a small cache on the ADL-like replay: caching everything
    thrashes a small cache, caching only the longest requests leaves
    savings unrealised. Points are [(capacity, threshold)]. *)
val ablation_threshold :
  ?seed:int -> ?thresholds:float list -> ?capacities:int list ->
  ?n_requests:int -> unit -> ((int * float) * Cluster_runner.result) list

(** {1 A8 — ablation: injected faults (drop-rate × crash-frequency)} *)

(** [ablation_faults ()] sweeps the drop-rate × crash-frequency grid of
    the fault-injection plan over the cooperative protocol (bounded fetch
    retries, local-execution fallback, suspect-table purge on timeout).
    The degradation is graceful: every request completes, the hit ratio
    erodes towards local-only as faults intensify. Points are
    [(drop, mtbf)]: the per-link message drop probability and the mean
    time between node failures in seconds, [0.] meaning no crashes. *)
val ablation_faults :
  ?seed:int -> ?drops:float list -> ?mtbfs:float list -> ?nodes:int ->
  unit -> int * ((float * float) * Cluster_runner.result) list

(** {1 A9 — ablation: network partitions × anti-entropy repair} *)

(** [ablation_partition ()] sweeps partition duration × anti-entropy
    period on a 4-node cluster split down the middle ([[0;1]] vs
    [[2;3]]). While divided, the halves duplicate hot executions and
    their directories diverge; after the heal, anti-entropy pulls the
    missing entries back at a rate set by its period, while a period of
    [0.] (daemon off) leaves divergence to be repaired only by lazy
    per-request discovery. Points are [(duration, period)] in seconds; a
    duration of [0.] means no partition. *)
val ablation_partition :
  ?seed:int -> ?durations:float list -> ?periods:float list ->
  unit -> ((float * float) * Cluster_runner.result) list

(** {1 A10 — ablation: directory-update batching} *)

(** [ablation_batching ()] sweeps the Nagle-style flush interval across
    cluster sizes on the write-heavy unique-cacheable mix (every request
    broadcasts one insert — the metadata-traffic worst case batching
    targets). Message and byte counts fall as the interval grows, while
    hit behaviour and request conservation are unchanged: batching delays
    metadata, it never loses or reorders it. Points are
    [(nodes, interval)]; an interval of [0.] means batching off
    ([batch_max 1], the exact pre-batching transmit path). *)
val ablation_batching :
  ?seed:int -> ?node_counts:int list -> ?intervals:float list ->
  ?n_requests:int -> unit -> ((int * float) * Cluster_runner.result) list

(** {1 A11 — ablation: metadata plane (directory mode)} *)

(** [ablation_dirmode ()] compares the two metadata planes (and update
    batching on the replicated one) across cluster sizes on a hot-headed
    read-mostly CGI mix. The replicated plane broadcasts every insert to
    [n - 1] peers and keeps the whole key population in every node;
    the sharded plane unicasts each insert to its consistent-hash home
    and forwards uncached remote lookups there, so messages stop scaling
    with [n] and per-node memory drops to the partition plus a bounded
    lookup cache — at the price of a forwarding round trip on lookup
    misses, which hotspot replication then claws back for the hot head.
    Points are [(nodes, variant)], the variant one of ["replicated"],
    ["batched"] (flush 5 ms, [batch_max 8]), ["sharded"] or
    ["sharded+hotspot"] (threshold 1/s, 3 replicas).

    [jobs] spreads the (cluster size, variant) grid over that many
    domains via {!Sim.Sweep}; every point is an independent seeded run,
    so the returned rows are identical for any [jobs]. Likewise for
    {!ablation_scenario} and {!ablation_freshness}. *)
val ablation_dirmode :
  ?jobs:int -> ?seed:int -> ?node_counts:int list -> ?n_requests:int ->
  unit -> ((int * string) * Cluster_runner.result) list

(** {1 A12 — time-varying scenario: flash crowd + rolling churn} *)

(** One row of {!ablation_scenario}. Each variant contributes an ["all"]
    row carrying the run-wide counters (hits, metadata messages, crashes,
    flash redirects, lost messages) followed by one row per scenario phase
    (["pre"], ["crowd"], ["decay"], ["post"]) whose latency statistics
    cover only the responses completing inside that phase; the run-wide
    fields are zero on phase rows. *)
type scenario_row = {
  variant_sc : string;  (** ["replicated"] or ["sharded+hotspot"] *)
  phase_sc : string;
  n_sc : int;
  mean_sc : float;
  p50_sc : float;
  p99_sc : float;
  hits_sc : int;
  hit_ratio_sc : float;
  dir_msgs_sc : int;  (** info unicasts + forwarded lookup messages *)
  crashes_sc : int;
  redirects_sc : int;  (** CGI items rewritten onto the crowd head *)
  net_lost_sc : int;
}

(** [ablation_scenario ()] replays one hot-headed cooperative mix through
    both metadata planes while a flash crowd (80 % of CGI traffic onto an
    8-key head for the middle of the run, with linear decay) and rolling
    churn (one node leave every ~3 s, 1.5 s downtime) are active — the
    §A12 experiment: does the sharded plane's unicast + hotspot machinery
    keep paying off when the workload and the membership both move?
    Returns rows per variant and phase; see {!scenario_row}. *)
val ablation_scenario :
  ?jobs:int -> ?seed:int -> ?n_nodes:int -> ?n_requests:int ->
  unit -> scenario_row list

(** {1 A13 — freshness: fixed vs adaptive TTL under a flash crowd} *)

(** [ablation_freshness ()] replays the A12 flash-crowd mix (no churn)
    under three fixed TTLs bracketing the regime (2/8/32 s), the adaptive
    per-key controller, and adaptive plus a 4-per-second proactive
    refresh budget, on both metadata planes — the §A13 experiment: does
    a per-key TTL beat every single whole-cache TTL somewhere on the
    staleness/recompute/bytes frontier? Points are [(plane, variant)],
    the variant one of ["fixed-2"], ["fixed-8"], ["fixed-32"],
    ["adaptive"] or ["adaptive+refresh"]. *)
val ablation_freshness :
  ?jobs:int -> ?seed:int -> ?n_nodes:int -> ?n_requests:int ->
  unit -> ((Config.dir_mode * string) * Cluster_runner.result) list
