type result = {
  response : Metrics.Sample.t;
  cgi_response : Metrics.Sample.t;
  file_response : Metrics.Sample.t;
  counters : Metrics.Counter.t;
  per_node_counters : Metrics.Counter.t array;
  duration : float;
  n_requests : int;
  hits : int;
  hit_ratio : float;
  utilisation : float array;
  dir_locks : int * int;
  dir_mode : string;
  dir_entries : int array;
  forward_wait : Metrics.Histogram.t;
  hit_latency : Metrics.Sample.t;
  store_stats : Cache.Stats.t;
  net_lost : int;
  net_lost_partition : int;
  n_events : int;
  tracer : Metrics.Trace.t option;
  wait_histograms : (string * Metrics.Histogram.t) list;
  tier_response : (string * Metrics.Sample.t) list;
  freshness_mode : string;
  freshness_active : bool;
  staleness : Metrics.Histogram.t;
  timelines : Metrics.Registry.t option;
  health : Metrics.Health.t option;
}

let mean_response r = Metrics.Sample.mean r.response

(* Scenario draws (flash-crowd redirects) come from their own salted root,
   like the fault and anti-entropy planes: enabling a scenario never
   perturbs the workload, CPU, cache or fault streams, and a run without
   one creates no generator at all. *)
let scenario_seed_salt = 0x5CE7A810

(* Split the trace round-robin over the streams, preserving order. *)
let split_streams trace n_streams =
  let streams = Array.make n_streams [] in
  List.iteri
    (fun i item -> streams.(i mod n_streams) <- item :: streams.(i mod n_streams))
    trace;
  Array.map List.rev streams

let default_registry trace =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  Workload.Webstone.register_files registry;
  Workload.Synthetic.register_trace_files registry trace;
  registry

let run cfg ~trace ~n_streams ?warmup ?(assign = fun s -> s mod cfg.Config.n_nodes)
    ?router ?(observe = fun ~time:_ _ -> ()) () =
  if n_streams < 1 then invalid_arg "Cluster_runner.run: n_streams must be >= 1";
  let registry = default_registry trace in
  let scenario = cfg.Config.scenario in
  (* Scenario state, all created only when one is configured. Per-stream
     generators are split from the salted root in stream order, so a
     stream's redirect draws are independent of interleaving. *)
  let scenario_rngs =
    match scenario with
    | None -> [||]
    | Some _ ->
        let root = Sim.Rng.create (cfg.Config.seed lxor scenario_seed_salt) in
        Array.init n_streams (fun _ -> Sim.Rng.split root)
  in
  let arrivals =
    match scenario with
    | None -> [||]
    | Some sc ->
        Workload.Scenario.arrival_times sc ~n:(Workload.Trace.length trace)
  in
  let tiers =
    match scenario with None -> [||] | Some sc -> Workload.Scenario.tiers sc
  in
  let tier_of_stream =
    match scenario with
    | Some sc when Array.length tiers > 0 ->
        Array.init n_streams (fun stream ->
            Workload.Scenario.tier_of_stream sc ~n_streams ~stream)
    | Some _ | None -> [||]
  in
  let tier_samples =
    Array.map (fun _ -> Metrics.Sample.create ()) tiers
  in
  let flash_redirects = ref 0 in
  let engine = Sim.Engine.create () in
  let cluster =
    Server.create_cluster engine cfg ~registry ~n_client_endpoints:n_streams
  in
  let router = Option.map Router.create router in
  let tracer = Server.tracer cluster in
  let client_track = cfg.Config.n_nodes in
  let streams = split_streams trace n_streams in
  let response = Metrics.Sample.create () in
  let cgi_response = Metrics.Sample.create () in
  let file_response = Metrics.Sample.create () in
  let latch = Sim.Latch.create n_streams in
  let finished_at = ref 0. in
  (* Just before [start]: the sampler must be the first process spawned,
     since spawn order breaks same-instant ties. *)
  let recorder =
    Option.map
      (fun interval -> Flight_recorder.create engine cluster cfg ~interval)
      cfg.Config.telemetry_interval
  in
  Server.start cluster;
  Sim.Engine.spawn engine (fun () ->
      (match warmup with Some f -> f cluster | None -> ());
      (* Release the client streams only after warm-up completes. *)
      Array.iteri
        (fun s items ->
          let client = cfg.Config.n_nodes + s in
          let pinned = assign s in
          Sim.Engine.spawn_child (fun () ->
              List.iteri
                (fun p item ->
                  (* Diurnal pacing: hold the p-th item of this stream
                     until its envelope release time (global trace index
                     p * n_streams + s — the inverse of [split_streams]).
                     A stream running behind its envelope just stays
                     closed-loop. *)
                  (if Array.length arrivals > 0 then
                     let g = (p * n_streams) + s in
                     if g < Array.length arrivals then begin
                       let release = arrivals.(g) in
                       let now = Sim.Engine.now () in
                       if release > now then Sim.Engine.delay (release -. now)
                     end);
                  (* Flash crowd: re-point this item onto the crowd head
                     with the intensity at (post-pacing) virtual now. *)
                  let item =
                    match scenario with
                    | None -> item
                    | Some sc -> (
                        match
                          Workload.Scenario.rewrite sc ~rng:scenario_rngs.(s)
                            ~now:(Sim.Engine.now ()) item
                        with
                        | Some item' ->
                            incr flash_redirects;
                            item'
                        | None -> item)
                  in
                  let req = Workload.Trace.to_request item in
                  let t0 = Sim.Engine.now () in
                  (* Each client request roots its own span tree; the id
                     rides the fiber-local slot into [Server.submit] and
                     from there across the cluster. *)
                  let root =
                    match tracer with
                    | None -> 0
                    | Some tr ->
                        let id =
                          Metrics.Trace.begin_span tr ~track:client_track
                            ~name:"request"
                            ~attrs:
                              [
                                ("path", req.Http.Request.uri.Http.Uri.path);
                                ("stream", string_of_int s);
                              ]
                            ()
                        in
                        Sim.Engine.set_local id;
                        id
                  in
                  let (_ : Http.Response.t) =
                    match router with
                    | Some r ->
                        (* The dispatcher path: routed, and resubmitted to a
                           survivor on a 503 from a node that just crashed. *)
                        let target = Router.pick r cluster ~stream:s req in
                        Router.submit r cluster ~client ~node:target req
                    | None -> Server.submit cluster ~client ~node:pinned req
                  in
                  (match tracer with
                  | None -> ()
                  | Some tr ->
                      Metrics.Trace.end_span tr root;
                      Sim.Engine.set_local 0);
                  let dt = Sim.Engine.now () -. t0 in
                  Metrics.Sample.add response dt;
                  (match recorder with
                  | None -> ()
                  | Some fr -> Flight_recorder.observe_response fr dt);
                  observe ~time:(Sim.Engine.now ()) dt;
                  if Array.length tier_of_stream > 0 then
                    Metrics.Sample.add tier_samples.(tier_of_stream.(s)) dt;
                  if Workload.Trace.is_cgi item then
                    Metrics.Sample.add cgi_response dt
                  else Metrics.Sample.add file_response dt)
                items;
              Sim.Latch.arrive latch))
        streams;
      Sim.Latch.wait latch;
      finished_at := Sim.Engine.now ();
      Server.stop cluster;
      Option.iter Flight_recorder.stop recorder);
  Sim.Engine.run engine;
  let duration = !finished_at in
  (* Hint statistics live in the directory; surface them as counters so
     runs with hints on report them alongside everything else (absent
     when zero, keeping hint-less counter sets unchanged). Same for the
     sharded plane's lookup-cache outcomes. *)
  Server.record_plane_stats cluster;
  (* Per-node metadata footprint at run end: replica size (replicated)
     or shard partition + lookup cache (sharded) — the memory metric and
     load-balance diagnostic of the dirmode ablation. *)
  let dir_entries =
    Array.init (Server.n_nodes cluster) (Server.dir_entries cluster)
  in
  let per_node_counters =
    Array.init (Server.n_nodes cluster) (fun i ->
        Server.node_counters (Server.node cluster i))
  in
  let counters = Server.merged_counters cluster in
  (* The router lives client-side; fold its retry count into the cluster
     totals so one table carries the whole fault story. *)
  (match router with
  | Some r when Router.retries r > 0 ->
      Metrics.Counter.add counters Server.K.router_retries (Router.retries r)
  | Some _ | None -> ());
  (* Scenario counters are client-side too: flash redirects and per-tier
     request counts, absent when zero/unconfigured so scenario-free runs
     keep their counter sets unchanged. *)
  if !flash_redirects > 0 then
    Metrics.Counter.add counters "scenario_flash_redirects" !flash_redirects;
  (match scenario with
  | Some sc when Array.length tiers > 0 ->
      Array.iteri
        (fun i sample ->
          Metrics.Counter.add counters
            ("tier_" ^ Workload.Scenario.tier_name sc i ^ "_requests")
            (Metrics.Sample.count sample))
        tier_samples
  | Some _ | None -> ());
  (* The fault plan is the only source of lost messages. *)
  let fault_count count =
    Option.fold ~none:0 ~some:count (Server.fault cluster)
  in
  let hits = Server.total_hits cluster in
  let n_cgi =
    Metrics.Counter.get counters Server.K.cgi_execs
    + Metrics.Counter.get counters Server.K.hit_local
    + Metrics.Counter.get counters Server.K.hit_remote
  in
  {
    response;
    cgi_response;
    file_response;
    counters;
    per_node_counters;
    duration;
    n_requests = Workload.Trace.length trace;
    hits;
    hit_ratio = (if n_cgi = 0 then 0. else float_of_int hits /. float_of_int n_cgi);
    utilisation =
      Array.init (Server.n_nodes cluster) (fun i ->
          Sim.Cpu.utilisation
            (Server.node_cpu (Server.node cluster i))
            ~elapsed:(Stdlib.max duration 1e-9));
    dir_locks =
      (let rd = ref 0 and wr = ref 0 in
       for i = 0 to Server.n_nodes cluster - 1 do
         let r, w = Server.dir_lock_acquisitions cluster i in
         rd := !rd + r;
         wr := !wr + w
       done;
       (!rd, !wr));
    dir_mode = Config.dir_mode_to_string cfg.Config.dir_mode;
    dir_entries;
    forward_wait = Server.forward_wait_histogram cluster;
    hit_latency = Server.hit_latency cluster;
    store_stats =
      (let acc = ref (Cache.Stats.create ()) in
       for i = 0 to Server.n_nodes cluster - 1 do
         acc :=
           Cache.Stats.merge !acc
             (Cache.Store.stats (Server.node_store (Server.node cluster i)))
       done;
       !acc);
    net_lost = fault_count Sim.Fault.drops;
    net_lost_partition = fault_count Sim.Fault.drops_partition;
    n_events = Sim.Engine.events_processed engine;
    tracer;
    wait_histograms = Server.wait_histograms cluster;
    tier_response =
      (match scenario with
      | Some sc when Array.length tiers > 0 ->
          Array.to_list
            (Array.mapi
               (fun i sample -> (Workload.Scenario.tier_name sc i, sample))
               tier_samples)
      | Some _ | None -> []);
    freshness_mode = Cache.Freshness.mode_to_string cfg.Config.freshness;
    (* The staleness histogram is recorded in every mode (it is pure
       host-side observation), but only surfaces in the JSON payload when
       the freshness plane is actually in play — keeping fixed-mode
       payloads identical to pre-freshness builds. *)
    freshness_active =
      cfg.Config.freshness = Cache.Freshness.Adaptive
      || cfg.Config.refresh_budget > 0.;
    staleness = Server.staleness_histogram cluster;
    timelines = Option.map Flight_recorder.registry recorder;
    health = Option.map Flight_recorder.health recorder;
  }

(* JSON rendering of a run's metrics (the [--metrics-out] payload, also
   written by the bench harness). Statistics over empty collections render
   as null rather than crashing or inventing a zero. *)

let sample_json s =
  let module J = Metrics.Json in
  J.Obj
    [
      ("count", J.Int (Metrics.Sample.count s));
      ("mean", J.Float (Metrics.Sample.mean s));
      ("p50", J.float_opt (Metrics.Sample.quantile_opt s 0.5));
      ("p95", J.float_opt (Metrics.Sample.quantile_opt s 0.95));
      ("p99", J.float_opt (Metrics.Sample.quantile_opt s 0.99));
      ("min", J.float_opt (Metrics.Sample.min_opt s));
      ("max", J.float_opt (Metrics.Sample.max_opt s));
    ]

let histogram_json h =
  let module J = Metrics.Json in
  let module H = Metrics.Histogram in
  J.Obj
    [
      ("count", J.Int (H.count h));
      ("mean", J.Float (H.mean h));
      ("p50", J.float_opt (H.quantile_opt h 0.5));
      ("p99", J.float_opt (H.quantile_opt h 0.99));
      ("min", J.float_opt (H.min_opt h));
      ("max", J.float_opt (H.max_opt h));
      ( "buckets",
        (* The overflow bucket's bound is infinity, rendered as null. *)
        J.List
          (List.map
             (fun (le, count) ->
               J.Obj [ ("le", J.Float le); ("count", J.Int count) ])
             (H.buckets h)) );
    ]

let result_to_json r =
  let module J = Metrics.Json in
  let rd, wr = r.dir_locks in
  (* [dir_entries] as a histogram (power-of-two buckets): its spread is
     the consistent-hash load imbalance. *)
  let shard_imbalance =
    Metrics.Histogram.create ~bounds:(Metrics.Histogram.pow2_bounds ()) ()
  in
  Array.iter
    (fun n -> Metrics.Histogram.add shard_imbalance (float_of_int n))
    r.dir_entries;
  J.to_string
    (J.Obj
       ([
          ("duration_s", J.Float r.duration);
         ("n_requests", J.Int r.n_requests);
         ("n_events", J.Int r.n_events);
         ("hits", J.Int r.hits);
         ("hit_ratio", J.Float r.hit_ratio);
         ("net_lost", J.Int r.net_lost);
         ("net_lost_partition", J.Int r.net_lost_partition);
         ( "dir_lock_acquisitions",
           J.Obj [ ("read", J.Int rd); ("write", J.Int wr) ] );
         ("dir_mode", J.Str r.dir_mode);
         ( "dir_entries",
           J.List
             (Array.to_list (Array.map (fun n -> J.Int n) r.dir_entries)) );
         ("shard_imbalance", histogram_json shard_imbalance);
         ("forward_wait_s", histogram_json r.forward_wait);
         ("hit_latency_s", sample_json r.hit_latency);
         ( "utilisation",
           J.List (Array.to_list (Array.map (fun u -> J.Float u) r.utilisation))
         );
         ("response_s", sample_json r.response);
         ("cgi_response_s", sample_json r.cgi_response);
         ("file_response_s", sample_json r.file_response);
         ( "counters",
           J.Obj
             (List.map
                (fun n -> (n, J.Int (Metrics.Counter.get r.counters n)))
                (Metrics.Counter.names r.counters)) );
         ( "wait_histograms",
           J.Obj
             (List.map (fun (name, h) -> (name, histogram_json h))
                r.wait_histograms) );
       ]
    @
    (* Per-tier response summaries only appear on geo-tiered runs, keeping
       the scenario-free payload identical. *)
    (match r.tier_response with
    | [] -> []
    | tiers ->
        [
          ( "tier_response_s",
            J.Obj (List.map (fun (name, s) -> (name, sample_json s)) tiers) );
        ])
    @
    (* The freshness plane's keys only appear when it is on (adaptive TTLs
       or a refresh budget), keeping default payloads identical. *)
    (if r.freshness_active then
       [
         ("freshness", J.Str r.freshness_mode);
         ("staleness_s", histogram_json r.staleness);
       ]
     else [])
    @
    (* The flight recorder's sections exist only when telemetry was on,
       keeping telemetry-off payloads byte-identical to older builds. *)
    (match r.timelines with
    | None -> []
    | Some reg -> [ ("timelines", Metrics.Registry.to_json reg) ])
    @
    match r.health with
    | None -> []
    | Some h -> [ ("incidents", Metrics.Health.to_json h) ]))
