(* The benchmark's four workloads. Each one loads a different layer of the
   simulator heavily and leaves at least one other layer light or unused,
   so that a change to one layer shows up on one workload and not on the
   others (README.md has the layer map).

   A workload is a pure function of the seed and a size factor: the seed
   drives the trace generator and the simulator's own random streams, the
   scale multiplies the request and key counts (1 is the benchmark; the
   smoke test uses 0.02). Every client stream runs a closed loop: it sends
   its next request when the previous response arrives. *)

type t = {
  name : string;
  n_streams : int;
  router : Swala.Router.policy option;
  telemetry_interval : float;
      (** flight-recorder cadence of the traced replay: about makespan/200
          at scale 1 *)
  trace : seed:int -> scale:float -> Workload.Trace.t;
  config : seed:int -> Swala.Config.t;
}

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let coop ~n ~n_unique ~demand ~seed ~scale =
  Workload.Synthetic.coop ~seed ~n:(scaled scale n)
    ~n_unique:(scaled scale n_unique) ~n_hot:24 ~zipf_s:1.1 ~demand ()

(* The paper's Fig. 4 setting, saturated (CPU utilisation 0.97): ADL files
   and 1.6 s CGIs. The processor-sharing CPU, store reads, the file path
   and the response samples do most of the work; metadata traffic is
   small (1.6 messages per request). *)
let adl_4node =
  {
    name = "adl-4node";
    n_streams = 16;
    router = None;
    telemetry_interval = 38.;
    trace =
      (fun ~seed ~scale ->
        Workload.Synthetic.adl_scaled ~seed ~n:(scaled scale 60_000));
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
          ~threads_per_node:16 ~seed ());
  }

(* Write-heavy: three in four requests insert a new key, and each insert
   is broadcast to 63 peers (47 metadata messages and 510 events per
   request). Net, Mailbox, Broadcast, Directory inserts and store
   evictions dominate; no shard module runs. *)
let replicated_64_write =
  {
    name = "replicated-64-write";
    n_streams = 64;
    router = None;
    telemetry_interval = 0.03;
    trace = coop ~n:8_000 ~n_unique:6_000 ~demand:0.005;
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:64 ~cache_mode:Swala.Config.Cooperative
          ~cache_threshold:0.001 ~seed ());
  }

(* The unsaturated point (CPU utilisation 0.05, hit ratio 0.87): the ring,
   shard tables, lookup cache, hotspot promotion and forwarded lookups
   carry the work, with no directory broadcast. Building 512 nodes makes
   this the largest set-up. *)
let sharded_512_read =
  {
    name = "sharded-512-read";
    n_streams = 512;
    router = None;
    telemetry_interval = 0.14;
    trace = coop ~n:50_000 ~n_unique:6_250 ~demand:0.005;
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:512 ~cache_mode:Swala.Config.Cooperative
          ~cache_threshold:0.001 ~dir_mode:Swala.Config.Sharded
          ~hotspot_threshold:1.0 ~hotspot_window:2.0 ~hotspot_replicas:3
          ~seed ());
  }

(* Time-varying traffic: a flash crowd (80 % of CGI traffic onto 8 keys
   from 30 s for 30 s, then 30 s of decay) under Poisson churn. The only
   workload where faults, scenarios, adaptive freshness, the refresh
   daemon, anti-entropy and router retries run; each of those planes is
   off, and byte-identical to a build without it, in the other three. *)
let flash_churn_8 =
  let scenario =
    Workload.Scenario.make ~duration:120.
      ~flash:
        (Workload.Scenario.flash_crowd ~at:30. ~duration:30. ~decay:30.
           ~fraction:0.8 ~keys:8 ~zipf_s:1.0 ~demand:0.02 ())
      ()
  in
  let fault =
    Sim.Fault.make
      ~churn:(Sim.Fault.churn ~rate:0.3 ~downtime:1.5 ~poisson:true ())
      ~horizon:120. ()
  in
  {
    name = "flash-churn-8";
    n_streams = 32;
    router = Some Swala.Router.Per_stream;
    telemetry_interval = 0.6;
    trace = coop ~n:50_000 ~n_unique:12_500 ~demand:0.02;
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:8 ~cache_mode:Swala.Config.Cooperative
          ~cache_threshold:0.001 ~scenario:(Some scenario)
          ~fault:(Some fault) ~fetch_timeout:(Some 0.25) ~fetch_retries:1
          ~anti_entropy_period:(Some 1.0) ~default_ttl:(Some 8.)
          ~freshness:Cache.Freshness.Adaptive ~refresh_budget:4. ~seed ());
  }

let all = [ adl_4node; replicated_64_write; sharded_512_read; flash_churn_8 ]
let find name = List.find_opt (fun w -> w.name = name) all

(* [config w ~seed ~traced] adds tracing and the flight recorder for the
   traced replay. *)
let config w ~seed ~traced =
  let c = w.config ~seed in
  if traced then
    { c with Swala.Config.trace = true; telemetry_interval = Some w.telemetry_interval }
  else c

(* The script and file registry [Cluster_runner.run] builds for a trace;
   set-up timing builds it the same way. *)
let registry trace =
  let r = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts r;
  Workload.Webstone.register_files r;
  Workload.Synthetic.register_trace_files r trace;
  r
