(** The Swala distributed web server (paper §4).

    A {!cluster} is a group of simulated server nodes sharing a network and
    a script/file registry. Each node runs, as simulated threads:

    - the {b HTTP module}: a pool of request threads taking turns on the
      node's listen mailbox, each owning a request from parse to completion
      (Figure 2's control flow);
    - the {b cacher module}: an info receiver applying directory updates,
      a data server answering remote fetches (one thread spawned per
      fetch), and a purge thread deleting expired entries.

    Who caches what is the business of the metadata plane ({!Plane.S})
    that {!create_cluster} chooses once per cluster (see {!plane}).

    The same machinery runs the baselines: [Config.cache_mode = Disabled]
    is the no-cache server, [Standalone] caches without any inter-node
    cooperation, and the [Config.server_model] cost profiles turn the node
    into the HTTPd-like or Enterprise-like comparison server. *)

type t
(** One server node. *)

type cluster

(** [create_cluster engine cfg ~registry ~n_client_endpoints] builds the
    nodes, network (endpoints [0 .. n_nodes-1] are nodes, the rest client
    endpoints) and per-node state. Call {!start} before submitting.

    When [cfg.scenario] has geo tiers, client endpoint [n_nodes + s] is
    client stream [s] of [n_client_endpoints], and its link adds its
    tier's extra one-way latency ({!Workload.Scenario.tier_of_stream},
    {!Workload.Scenario.tier_extra_latency}). Node endpoints always keep
    the base LAN latency. *)
val create_cluster :
  Sim.Engine.t ->
  Config.t ->
  registry:Cgi.Registry.t ->
  n_client_endpoints:int ->
  cluster

(** [start cluster] spawns every node's request threads and daemons. *)
val start : cluster -> unit

(** [stop cluster] signals purge daemons to exit and clears the fault
    plan's crash, restart and heal timers that have not fired, so the
    simulation can drain even when the fault horizon outlives the
    workload; idempotent. *)
val stop : cluster -> unit

(** [submit cluster ~client ~node req] sends [req] from client endpoint
    [client] to [node] and blocks until the response returns, including
    both network transfers. Must run inside a simulated process. *)
val submit :
  cluster -> client:int -> node:int -> Http.Request.t -> Http.Response.t

(** [preload cluster ~node req ~exec_time] warms [node]'s cache with the
    result of [req] as if it had been executed and inserted (directory
    update broadcast included). Must run inside a simulated process. *)
val preload : cluster -> node:int -> Http.Request.t -> exec_time:float -> unit

(** {1 Invalidation}

    The paper's TTL scheme suits read-mostly sites; for stronger content
    consistency it proposes (as future work) receiving invalidation
    messages from applications and monitoring CGI input files. These are
    those hooks. Both must run inside a simulated process; deletions are
    broadcast to peers like any other delete. *)

(** [invalidate cluster ~key] drops one cached result (by canonical cache
    key) from every node holding it; returns how many copies existed. *)
val invalidate : cluster -> key:string -> int

(** [invalidate_script cluster ~script] drops every cached result of a
    CGI program (all argument combinations); returns the count. Used by
    {!Filemon} when one of the program's source files changes. *)
val invalidate_script : cluster -> script:string -> int

(** [node_active nd] is the number of requests the node is currently
    handling (used by load-aware request routing). *)
val node_active : t -> int

(** [node_up nd] is [false] while the node is crashed under fault
    injection. A down node answers nothing itself: incoming requests get a
    front-end [503], incoming fetches and directory updates are lost, and
    the network drops its traffic. Always [true] without a fault plan. *)
val node_up : t -> bool

(** [node_listen_depth nd] is the number of requests waiting in the
    node's listen mailbox for a free request thread. *)
val node_listen_depth : t -> int

val net : cluster -> Sim.Net.t

(** [fault cluster] is the instantiated fault plan, when the configuration
    carries a fault profile — the source of truth for injected drop/delay
    counts and crash schedules. *)
val fault : cluster -> Sim.Fault.t option

val n_nodes : cluster -> int
val node : cluster -> int -> t

(** {1 Introspection} *)

val node_counters : t -> Metrics.Counter.t
val node_store : t -> Cache.Store.t
val node_cpu : t -> Sim.Cpu.t

(** The metadata plane {!create_cluster} chose: [Local] for no-cache and
    standalone clusters, otherwise the [Config.dir_mode] plane. *)
type plane =
  | Local
  | Replicated of Replicated_plane.t
  | Sharded of Sharded_plane.t

(** [plane cluster] is the cluster's metadata plane, for tests and
    experiments that inspect or feed it directly. *)
val plane : cluster -> plane

(** [dir_entries cluster i] is node [i]'s metadata footprint in entries:
    its whole replica (replicated), its shard partition plus lookup cache
    (sharded), or [0] (no directory). *)
val dir_entries : cluster -> int -> int

(** [backlog cluster i] is the number of protocol messages waiting at
    node [i]: fetches queued for its data server plus the plane's own
    mailboxes (info inbox, sync or lookup requests). *)
val backlog : cluster -> int -> int

(** [dir_lock_acquisitions cluster i] is node [i]'s cumulative (read,
    write) directory lock acquisitions; [(0, 0)] without a directory. *)
val dir_lock_acquisitions : cluster -> int -> int * int

(** [tracer cluster] is the causal tracer when [Config.trace] is set.
    Request-thread, daemon and client spans land here; export it with
    {!Metrics.Trace.to_chrome_json} or summarise it with
    {!Metrics.Trace.breakdown}. [None] when tracing is off — the hot path
    then contains no tracing work at all. *)
val tracer : cluster -> Metrics.Trace.t option

(** [wait_histograms cluster] are the cluster-wide contention histograms
    (empty list when tracing is off): acquire waits and queue depths for
    the directory rwlocks ([dir.rd_wait]/[dir.wr_wait]/[dir.queue]), the
    listen mailboxes feeding the request-thread pools
    ([listen.wait]/[listen.depth]), the processor-sharing CPUs
    ([cpu.wait]/[cpu.queue]) and the disk arms ([disk.wait]). *)
val wait_histograms : cluster -> (string * Metrics.Histogram.t) list

(** [merged_counters cluster] sums all nodes' counters. *)
val merged_counters : cluster -> Metrics.Counter.t

(** [total_hits cluster] is local + remote cache hits served to clients. *)
val total_hits : cluster -> int

(** Counter names, documented at {!Node.K}. *)
module K = Node.K

(** [record_plane_stats cluster] folds the plane's host-side statistics
    into the node counters: directory hint outcomes
    ({!K.hint_probes_saved}/{!K.hint_false}) or lookup-cache outcomes
    ({!K.lcache_pos_hits} etc.), each only when nonzero. Call once, after
    the run, before reading counters; the cluster runner does this. *)
val record_plane_stats : cluster -> unit

(** [hit_latency cluster] is the sample of cooperative cache-hit service
    times (seconds from directory-lookup start to response sent), across
    all nodes and both hit kinds. Collected host-side in every mode; the
    dirmode ablation's latency metric. *)
val hit_latency : cluster -> Metrics.Sample.t

(** [forward_wait_histogram cluster] is the distribution of forwarded
    directory-lookup round-trip waits (sharded plane; timeouts included
    at their full timeout value). Empty on the replicated plane. *)
val forward_wait_histogram : cluster -> Metrics.Histogram.t

(** [staleness_histogram cluster] is the distribution of content ages at
    cache hits (seconds since the entry was created, over
    {!Metrics.Histogram.age_bounds}), across all nodes and both hit
    kinds. Collected host-side in every mode — the freshness ablation's
    staleness metric. *)
val staleness_histogram : cluster -> Metrics.Histogram.t
