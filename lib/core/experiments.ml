(* Experiment drivers. Layout conventions:
   - every driver takes ?seed and derives all randomness from it;
   - "mean response" is the client-observed mean over every request of the
     run, matching how WebStone and the paper's replays report results. *)

let default_seed = 42

(* The catalogue: each target's name, its one-line description and what
   it prints are declared next to its driver below; [targets] at the end
   lists them in run order. *)

type block = Table of Metrics.Table.t | Text of string
type target = { name : string; doc : string; output : jobs:int -> block list }

let table ~title columns rows =
  Table (Metrics.Table.of_rows ~title columns rows)

(* A target that prints one table: a row per element of [rows ~jobs]. *)
let one_table name ~doc ~title columns rows =
  { name; doc; output = (fun ~jobs -> [ table ~title columns (rows ~jobs) ]) }

let sec = Metrics.Table.fmt_f ~decimals:3
let f4 = Metrics.Table.fmt_f ~decimals:4
let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.)

(* Hits as a share of the offline upper bound. *)
let of_upper hits upper =
  Metrics.Table.fmt_pct
    (float_of_int hits /. float_of_int (Stdlib.max 1 upper))

(* A swept float whose zero point means "off" or "none". *)
let swept ~zero v = if v = 0. then zero else Printf.sprintf "%g" v

(* ------------------------------------------------------------------ *)
(* E1 — Table 1 *)

let table1 ?(seed = default_seed) ?params ?(thresholds = [ 0.5; 1.0; 2.0; 4.0 ])
    () =
  let trace = Workload.Synthetic.adl ~seed ?params () in
  ( Workload.Analyzer.summarize trace,
    Workload.Analyzer.table1 trace ~thresholds )

let table1_target =
  let module A = Workload.Analyzer in
  let output ~jobs:_ =
    let s, rows = table1 () in
    [
      Text
        (Printf.sprintf
           "Workload: %d requests, %d CGI (%.1f%%); total service %.0f s; \
            mean response %.2f s; mean file %.3f s; mean CGI %.2f s; CGI \
            share of time %.1f%%; longest %.1f s"
           s.A.n_total s.A.n_cgi (100. *. s.A.cgi_fraction) s.A.total_service
           s.A.mean_response s.A.mean_file_time s.A.mean_cgi_time
           (100. *. s.A.cgi_time_fraction) s.A.longest);
      table ~title:"Table 1. Potential time saving by caching CGI."
        Metrics.Table.
          [
            left "Time threshold" (fun r ->
                Printf.sprintf "%.1f sec" r.A.threshold);
            right "#long requests" (fun r -> fmt_i r.A.n_long);
            right "Total # repeats" (fun r -> fmt_i r.A.total_repeats);
            right "# uniq. repeats" (fun r -> fmt_i r.A.unique_repeats);
            right "Time saved" (fun r ->
                Printf.sprintf "%.0f s" r.A.time_saved);
            right "Saved %" (fun r -> fmt_pct r.A.saved_fraction);
          ]
        rows;
    ]
  in
  { name = "table1"; doc = "potential saving from CGI caching"; output }

(* ------------------------------------------------------------------ *)
(* E2 — Table 2 *)

type table2_row = {
  clients : int;
  httpd : float;
  enterprise : float;
  swala : float;
}

let run_file_mix ~seed ~model ~clients ~requests_per_client =
  let trace =
    Workload.Webstone.file_trace ~seed ~n:(clients * requests_per_client)
  in
  let cfg =
    Config.make ~cache_mode:Config.Disabled ~model
      ~threads_per_node:(Stdlib.max 16 clients) ~seed ()
  in
  let result = Cluster_runner.run cfg ~trace ~n_streams:clients () in
  Cluster_runner.mean_response result

let table2 ?(seed = default_seed) ?(clients = [ 4; 8; 16; 32; 64; 128 ])
    ?(requests_per_client = 40) () =
  List.map
    (fun c ->
      {
        clients = c;
        httpd =
          run_file_mix ~seed ~model:Config.httpd_model ~clients:c
            ~requests_per_client;
        enterprise =
          run_file_mix ~seed ~model:Config.enterprise_model ~clients:c
            ~requests_per_client;
        swala =
          run_file_mix ~seed ~model:Config.swala_model ~clients:c
            ~requests_per_client;
      })
    clients

let table2_target =
  one_table "table2" ~doc:"file-fetch response times by server"
    ~title:
      "Table 2. File fetch average response time in seconds (WebStone mix)."
    Metrics.Table.
      [
        right "# clients" (fun r -> fmt_i r.clients);
        right "HTTPd" (fun r -> sec r.httpd);
        right "Enterprise" (fun r -> sec r.enterprise);
        right "Swala" (fun r -> sec r.swala);
        right "HTTPd/Swala" (fun r ->
            Printf.sprintf "%.1fx" (r.httpd /. r.swala));
      ]
    (fun ~jobs:_ -> table2 ())

(* ------------------------------------------------------------------ *)
(* E3 — Figure 3 *)

type figure3 = {
  enterprise_f3 : float;
  httpd_f3 : float;
  swala_no_cache : float;
  swala_remote : float;
  swala_local : float;
}

let null_request () =
  Workload.Trace.to_request
    (List.hd (Workload.Webstone.null_cgi_trace ~n:1))

let figure3 ?(seed = default_seed) ?(clients = 24) ?(requests_per_client = 40)
    () =
  let trace = Workload.Webstone.null_cgi_trace ~n:(clients * requests_per_client) in
  let run_plain model =
    let cfg =
      Config.make ~cache_mode:Config.Disabled ~model ~threads_per_node:clients
        ~seed ()
    in
    Cluster_runner.mean_response (Cluster_runner.run cfg ~trace ~n_streams:clients ())
  in
  (* Local fetch: one cooperative node, cache warmed with the null CGI. *)
  let local =
    let cfg =
      Config.make ~cache_mode:Config.Cooperative ~threads_per_node:clients
        ~cache_threshold:0. ~seed ()
    in
    let warmup cluster =
      Server.preload cluster ~node:0 (null_request ()) ~exec_time:0.03
    in
    Cluster_runner.mean_response
      (Cluster_runner.run cfg ~trace ~n_streams:clients ~warmup ())
  in
  (* Remote fetch: two nodes; node 0 holds the entry, all clients hit node 1. *)
  let remote =
    let cfg =
      Config.make ~n_nodes:2 ~cache_mode:Config.Cooperative
        ~threads_per_node:clients ~cache_threshold:0. ~seed ()
    in
    let warmup cluster =
      Server.preload cluster ~node:0 (null_request ()) ~exec_time:0.03;
      (* Let the insert broadcast reach node 1's directory replica. *)
      Sim.Engine.delay 0.01
    in
    Cluster_runner.mean_response
      (Cluster_runner.run cfg ~trace ~n_streams:clients ~warmup
         ~assign:(fun _ -> 1) ())
  in
  {
    enterprise_f3 = run_plain Config.enterprise_model;
    httpd_f3 = run_plain Config.httpd_model;
    swala_no_cache = run_plain Config.swala_model;
    swala_remote = remote;
    swala_local = local;
  }

let figure3_target =
  let output ~jobs:_ =
    let f = figure3 () in
    [
      table
        ~title:"Figure 3. Null-CGI request response time (24 clients, seconds)."
        Metrics.Table.
          [ left "Configuration" fst; right "Response" (fun (_, v) -> sec v) ]
        [
          ("Enterprise", f.enterprise_f3);
          ("HTTPd", f.httpd_f3);
          ("Swala no cache", f.swala_no_cache);
          ("Swala remote cache", f.swala_remote);
          ("Swala local cache", f.swala_local);
        ];
      Text
        (Printf.sprintf
           "Remote-fetch overhead over local fetch under load: %.3f s"
           (f.swala_remote -. f.swala_local));
    ]
  in
  { name = "figure3"; doc = "null-CGI response times"; output }

(* ------------------------------------------------------------------ *)
(* E4 — Figure 4 *)

type figure4_row = {
  nodes : int;
  no_cache : float;
  coop : float;
  speedup_no_cache : float;
  improvement : float;
}

let figure4 ?(seed = default_seed) ?(node_counts = [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    ?(n_requests = 8_000) () =
  let trace = Workload.Synthetic.adl_scaled ~seed ~n:n_requests in
  (* Two client machines x eight threads, as in §5.2. *)
  let n_streams = 16 in
  let run nodes mode =
    let cfg =
      Config.make ~n_nodes:nodes ~cache_mode:mode ~seed
        ~threads_per_node:16 ()
    in
    Cluster_runner.mean_response
      (Cluster_runner.run cfg ~trace ~n_streams ())
  in
  let rows =
    List.map
      (fun nodes ->
        let no_cache = run nodes Config.Disabled in
        let coop = run nodes Config.Cooperative in
        (nodes, no_cache, coop))
      node_counts
  in
  let base =
    match rows with
    | (_, nc, _) :: _ -> nc
    | [] -> invalid_arg "figure4: empty node_counts"
  in
  List.map
    (fun (nodes, no_cache, coop) ->
      {
        nodes;
        no_cache;
        coop;
        speedup_no_cache = base /. no_cache;
        improvement = (no_cache -. coop) /. no_cache;
      })
    rows

let figure4_target =
  one_table "figure4" ~doc:"multi-node scaling, cache on/off"
    ~title:
      "Figure 4. Multi-node mean response time (s), ADL-like replay, 16 \
       client threads."
    Metrics.Table.
      [
        right "# servers" (fun r -> fmt_i r.nodes);
        right "No Cache" (fun r -> fmt_f ~decimals:2 r.no_cache);
        right "Coop. Cache" (fun r -> fmt_f ~decimals:2 r.coop);
        right "Speedup (NC)" (fun r ->
            Printf.sprintf "%.2fx" r.speedup_no_cache);
        right "Improvement" (fun r -> fmt_pct r.improvement);
      ]
    (fun ~jobs:_ -> figure4 ~n_requests:12_000 ())

(* ------------------------------------------------------------------ *)
(* E5 — Table 3 *)

type table3_row = {
  nodes_t3 : int;
  no_cache_t3 : float;
  coop_t3 : float;
  increase_t3 : float;
}

let table3 ?(seed = default_seed) ?(node_counts = [ 2; 3; 4; 5; 6; 7; 8 ])
    ?(n_requests = 180) () =
  let trace = Workload.Synthetic.unique_cacheable ~n:n_requests ~demand:1.0 in
  let run nodes mode =
    let cfg = Config.make ~n_nodes:nodes ~cache_mode:mode ~seed () in
    (* All requests to one node, back to back (single stream). *)
    Cluster_runner.mean_response
      (Cluster_runner.run cfg ~trace ~n_streams:1 ~assign:(fun _ -> 0) ())
  in
  List.map
    (fun nodes ->
      let no_cache = run nodes Config.Disabled in
      let coop = run nodes Config.Cooperative in
      {
        nodes_t3 = nodes;
        no_cache_t3 = no_cache;
        coop_t3 = coop;
        increase_t3 = coop -. no_cache;
      })
    node_counts

let table3_target =
  one_table "table3" ~doc:"insert+broadcast overhead"
    ~title:
      "Table 3. Response time overhead of insertion and information \
       broadcast (180 unique 1 s requests)."
    Metrics.Table.
      [
        right "# nodes" (fun r -> fmt_i r.nodes_t3);
        right "No Cache (s)" (fun r -> sec r.no_cache_t3);
        right "Coop. Cache (s)" (fun r -> sec r.coop_t3);
        right "Increase (s)" (fun r -> sec r.increase_t3);
      ]
    (fun ~jobs:_ -> table3 ())

(* ------------------------------------------------------------------ *)
(* E6 — Table 4 *)

type table4_row = {
  ups : int;
  mean_response_t4 : float;
  increase_t4 : float;
  updates_applied : int;
}

(* One live node told it belongs to an eight-node group; a pseudo-server
   process injects directory updates at a fixed rate while 180 uncacheable
   one-second requests run back to back. *)
let table4_run ~seed ~ups ~n_requests =
  let engine = Sim.Engine.create () in
  let cfg =
    Config.make ~n_nodes:8 ~cache_mode:Config.Cooperative ~seed ()
  in
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cluster =
    Server.create_cluster engine cfg ~registry ~n_client_endpoints:1
  in
  let trace = Workload.Synthetic.uncacheable ~n:n_requests ~demand:1.0 in
  let sample = Metrics.Sample.create () in
  let done_ = ref false in
  Server.start cluster;
  let client = 8 (* first client endpoint *) in
  Sim.Engine.spawn engine (fun () ->
      List.iter
        (fun item ->
          let req = Workload.Trace.to_request item in
          let t0 = Sim.Engine.now () in
          let (_ : Http.Response.t) = Server.submit cluster ~client ~node:0 req in
          Metrics.Sample.add sample (Sim.Engine.now () -. t0))
        trace;
      done_ := true;
      Server.stop cluster);
  (* The pseudo-server injects the replicated plane's updates, the plane
     the configuration above selects. *)
  (match Server.plane cluster with
  | Server.Replicated plane when ups > 0 ->
    let inbox = Replicated_plane.info_mailbox plane 0 in
    Sim.Engine.spawn engine (fun () ->
        let period = 1. /. float_of_int ups in
        let k = ref 0 in
        let rec loop () =
          if not !done_ then begin
            Sim.Engine.delay period;
            incr k;
            let meta =
              Cache.Meta.make
                ~key:(Printf.sprintf "GET /pseudo?i=%d" !k)
                ~owner:(1 + (!k mod 7))
                ~size:4096 ~exec_time:1.0 ~created:(Sim.Engine.now ())
                ~expires:None
            in
            Sim.Net.post (Server.net cluster) ~src:(1 + (!k mod 7)) ~dst:0
              ~bytes:128 inbox
              {
                Cluster.Msg.info = Cluster.Msg.Replicated.Insert meta;
                ack = None;
                span = 0;
              };
            loop ()
          end
        in
        loop ())
  | Server.Replicated _ | Server.Local | Server.Sharded _ -> ());
  Sim.Engine.run engine;
  let counters = Server.node_counters (Server.node cluster 0) in
  ( Metrics.Sample.mean sample,
    Metrics.Counter.get counters Server.K.info_applied )

let table4 ?(seed = default_seed) ?(ups_list = [ 0; 5; 10; 20; 40; 80 ])
    ?(n_requests = 180) () =
  let rows =
    List.map (fun ups -> (ups, table4_run ~seed ~ups ~n_requests)) ups_list
  in
  let base =
    match rows with
    | (_, (m, _)) :: _ -> m
    | [] -> invalid_arg "table4: empty ups_list"
  in
  List.map
    (fun (ups, (mean, applied)) ->
      {
        ups;
        mean_response_t4 = mean;
        increase_t4 = mean -. base;
        updates_applied = applied;
      })
    rows

let table4_target =
  one_table "table4" ~doc:"directory maintenance overhead"
    ~title:
      "Table 4. Response time overhead of replicated directory maintenance \
       (180 uncacheable 1 s requests)."
    Metrics.Table.
      [
        right "UPS" (fun r -> fmt_i r.ups);
        right "Avg. response (s)" (fun r -> f4 r.mean_response_t4);
        right "Increase (s)" (fun r -> f4 r.increase_t4);
        right "Updates applied" (fun r -> fmt_i r.updates_applied);
      ]
    (fun ~jobs:_ -> table4 ())

(* ------------------------------------------------------------------ *)
(* E7/E8 — Tables 5-6 *)

type hit_row = {
  nodes_h : int;
  standalone_hits : int;
  coop_hits : int;
  upper_bound : int;
  standalone_pct : float;
  coop_pct : float;
  coop_false_misses : int;
}

let hit_ratio_table ?(seed = default_seed) ?(node_counts = [ 1; 2; 4; 6; 8 ])
    ?(n = 1600) ?(n_unique = 1122) ~cache_size () =
  let trace =
    Workload.Synthetic.coop ~seed ~n ~n_unique ~locality:0.08 ()
  in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  let run nodes mode =
    let cfg =
      Config.make ~n_nodes:nodes ~cache_mode:mode ~cache_capacity:cache_size
        ~seed ()
    in
    Cluster_runner.run cfg ~trace ~n_streams:16 ()
  in
  List.map
    (fun nodes ->
      let st = run nodes Config.Standalone in
      let co = run nodes Config.Cooperative in
      let pct h = if upper = 0 then 0. else float_of_int h /. float_of_int upper in
      {
        nodes_h = nodes;
        standalone_hits = st.Cluster_runner.hits;
        coop_hits = co.Cluster_runner.hits;
        upper_bound = upper;
        standalone_pct = pct st.Cluster_runner.hits;
        coop_pct = pct co.Cluster_runner.hits;
        coop_false_misses =
          Metrics.Counter.get co.Cluster_runner.counters
            Server.K.false_miss_concurrent
          + Metrics.Counter.get co.Cluster_runner.counters
              Server.K.false_miss_duplicate;
      })
    node_counts

let hit_ratio_target number ~cache_size =
  let output ~jobs:_ =
    let rows = hit_ratio_table ~cache_size () in
    let upper = List.fold_left (fun _ r -> r.upper_bound) 0 rows in
    [
      table
        ~title:
          (Printf.sprintf
             "Table %d. Cache hit ratios, stand-alone and cooperative \
              caching, cache size %d."
             number cache_size)
        Metrics.Table.
          [
            right "# nodes" (fun r -> fmt_i r.nodes_h);
            right "Stand. hits" (fun r -> fmt_i r.standalone_hits);
            right "Coop. hits" (fun r -> fmt_i r.coop_hits);
            right "Stand. %UB" (fun r -> fmt_pct r.standalone_pct);
            right "Coop. %UB" (fun r -> fmt_pct r.coop_pct);
            right "False misses" (fun r -> fmt_i r.coop_false_misses);
          ]
        rows;
      Text
        (Printf.sprintf "Upper bound on hits: %d (1600 requests, 1122 unique)"
           upper);
    ]
  in
  {
    name = Printf.sprintf "table%d" number;
    doc = Printf.sprintf "hit ratios, cache size %d" cache_size;
    output;
  }

let table5_target = hit_ratio_target 5 ~cache_size:2000
let table6_target = hit_ratio_target 6 ~cache_size:20

(* ------------------------------------------------------------------ *)
(* A1 — replacement policies *)

type policy_row = {
  policy : Cache.Policy.t;
  hits_p : int;
  upper_p : int;
  mean_response_p : float;
}

let ablation_policy ?(seed = default_seed) ?(cache_size = 20) ?(nodes = 4) () =
  let trace = Workload.Synthetic.coop ~seed ~n:1600 ~n_unique:1122 ~locality:0.08 () in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  List.map
    (fun policy ->
      let cfg =
        Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
          ~cache_capacity:cache_size ~policy ~seed ()
      in
      let r = Cluster_runner.run cfg ~trace ~n_streams:16 () in
      {
        policy;
        hits_p = r.Cluster_runner.hits;
        upper_p = upper;
        mean_response_p = Cluster_runner.mean_response r;
      })
    Cache.Policy.all

let policy_target =
  one_table "ablation-policy" ~doc:"replacement policies under overflow"
    ~title:
      "Ablation A1. Replacement policy under overflow (cache size 20, 4 \
       nodes, cooperative)."
    Metrics.Table.
      [
        left "Policy" (fun r -> Cache.Policy.to_string r.policy);
        right "Hits" (fun r -> fmt_i r.hits_p);
        right "% of UB" (fun r -> of_upper r.hits_p r.upper_p);
        right "Mean response (s)" (fun r -> sec r.mean_response_p);
      ]
    (fun ~jobs:_ -> ablation_policy ())

(* ------------------------------------------------------------------ *)
(* A2 — locking granularity *)

type locking_row = {
  granularity : Cache.Directory.granularity;
  mean_response_l : float;
  rd_locks : int;
  wr_locks : int;
}

let granularity_name = function
  | Cache.Directory.Global -> "global"
  | Cache.Directory.Per_table -> "per-table"
  | Cache.Directory.Per_entry -> "per-entry"

let ablation_locking ?(seed = default_seed) ?(nodes = 4) () =
  (* Write-heavy, directory-bound regime: every 5 ms CGI is unique, so each
     request inserts into the directory and every peer applies the
     broadcast — four write-lock acquisitions per request cluster-wide. The
     table scan is charged under the lock (100 us per probe), so with one
     global lock those writes block every concurrent lookup, with per-table
     locks only the owner's table is blocked, and per-entry locking pays
     one acquisition per entry scanned — the three-way trade-off of §4.2. *)
  let trace = Workload.Synthetic.unique_cacheable ~n:4000 ~demand:0.005 in
  List.map
    (fun granularity ->
      let cfg =
        Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
          ~dir_granularity:granularity ~dir_scan_cost:2e-6
          ~cache_threshold:0.001 ~seed ()
      in
      let r = Cluster_runner.run cfg ~trace ~n_streams:(12 * nodes) () in
      let rd, wr = r.Cluster_runner.dir_locks in
      {
        granularity;
        mean_response_l = Cluster_runner.mean_response r;
        rd_locks = rd;
        wr_locks = wr;
      })
    [ Cache.Directory.Global; Cache.Directory.Per_table; Cache.Directory.Per_entry ]

let locking_target =
  one_table "ablation-locking" ~doc:"directory locking granularity"
    ~title:"Ablation A2. Directory locking granularity (4 nodes, cooperative)."
    Metrics.Table.
      [
        left "Granularity" (fun r -> granularity_name r.granularity);
        right "Mean response (s)" (fun r -> f4 r.mean_response_l);
        right "Read locks" (fun r -> fmt_i r.rd_locks);
        right "Write locks" (fun r -> fmt_i r.wr_locks);
      ]
    (fun ~jobs:_ -> ablation_locking ())

(* ------------------------------------------------------------------ *)
(* A3 — consistency anomalies vs latency *)

(* ------------------------------------------------------------------ *)
(* A4 — weak vs strong consistency protocol *)

type protocol_row = {
  latency_pr : float;
  weak : float;
  strong : float;
  penalty : float;
}

let ablation_protocol ?(seed = default_seed) ?(nodes = 8)
    ?(latencies = [ 0.0002; 0.002; 0.02 ]) ?(n_requests = 1_000)
    ?(demand = 0.2) () =
  let trace = Workload.Synthetic.unique_cacheable ~n:n_requests ~demand in
  let run latency consistency =
    let cfg =
      Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative ~consistency
        ~net_latency:latency ~cache_threshold:0.05 ~seed ()
    in
    Cluster_runner.mean_response
      (Cluster_runner.run cfg ~trace ~n_streams:16 ())
  in
  List.map
    (fun latency ->
      let weak = run latency Config.Weak in
      let strong = run latency Config.Strong in
      { latency_pr = latency; weak; strong; penalty = strong -. weak })
    latencies

let protocol_target =
  one_table "ablation-protocol" ~doc:"weak vs strong consistency cost"
    ~title:
      "Ablation A4. Weak vs strong directory consistency (8 nodes, all-miss \
       0.2 s CGIs, 16 streams)."
    Metrics.Table.
      [
        right "One-way latency (s)" (fun r -> f4 r.latency_pr);
        right "Weak (s)" (fun r -> f4 r.weak);
        right "Strong (s)" (fun r -> f4 r.strong);
        right "Penalty (s)" (fun r -> f4 r.penalty);
        right "Penalty %" (fun r -> fmt_pct (r.penalty /. r.weak));
      ]
    (fun ~jobs:_ -> ablation_protocol ())

(* ------------------------------------------------------------------ *)
(* A5 — routing policy *)

type routing_row = {
  routing : Router.policy;
  mode_r : Config.cache_mode;
  hits_r : int;
  upper_r : int;
  mean_response_r : float;
}

let ablation_routing ?(seed = default_seed) ?(nodes = 4) ?(cache_size = 2000)
    () =
  let trace =
    Workload.Synthetic.coop ~seed ~n:1600 ~n_unique:1122 ~locality:0.08 ()
  in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  List.concat_map
    (fun routing ->
      List.map
        (fun mode ->
          let cfg =
            Config.make ~n_nodes:nodes ~cache_mode:mode
              ~cache_capacity:cache_size ~seed ()
          in
          let r =
            Cluster_runner.run cfg ~trace ~n_streams:16 ~router:routing ()
          in
          {
            routing;
            mode_r = mode;
            hits_r = r.Cluster_runner.hits;
            upper_r = upper;
            mean_response_r = Cluster_runner.mean_response r;
          })
        [ Config.Standalone; Config.Cooperative ])
    Router.all_policies

let routing_target =
  one_table "ablation-routing" ~doc:"routing policy x cache mode"
    ~title:
      "Ablation A5. Request routing x cache mode (4 nodes, Table-5 workload, \
       cache size 2000)."
    Metrics.Table.
      [
        left "Routing" (fun r -> Router.policy_name r.routing);
        left "Cache mode" (fun r -> Config.cache_mode_to_string r.mode_r);
        right "Hits" (fun r -> fmt_i r.hits_r);
        right "% of UB" (fun r -> of_upper r.hits_r r.upper_r);
        right "Mean response (s)" (fun r -> sec r.mean_response_r);
      ]
    (fun ~jobs:_ -> ablation_routing ())

(* ------------------------------------------------------------------ *)
(* A6 — caching threshold sweep *)

type threshold_row = {
  threshold_t : float;
  capacity_t : int;
  mean_response_thr : float;
  hits_thr : int;
  inserts_thr : int;
  evictions_thr : int;
}

let ablation_threshold ?(seed = default_seed)
    ?(thresholds = [ 0.0; 0.5; 1.0; 2.0; 4.0 ]) ?(capacities = [ 2000; 50 ])
    ?(n_requests = 6_000) () =
  let trace = Workload.Synthetic.adl_scaled ~seed ~n:n_requests in
  List.concat_map
    (fun capacity ->
      List.map
        (fun threshold ->
          let cfg =
            Config.make ~n_nodes:4 ~cache_mode:Config.Cooperative
              ~cache_capacity:capacity ~cache_threshold:threshold ~seed ()
          in
          let r = Cluster_runner.run cfg ~trace ~n_streams:16 () in
          {
            threshold_t = threshold;
            capacity_t = capacity;
            mean_response_thr = Cluster_runner.mean_response r;
            hits_thr = r.Cluster_runner.hits;
            inserts_thr =
              Metrics.Counter.get r.Cluster_runner.counters Server.K.inserts;
            evictions_thr = r.Cluster_runner.store_stats.Cache.Stats.evictions;
          })
        thresholds)
    capacities

let threshold_target =
  one_table "ablation-threshold" ~doc:"caching threshold x capacity"
    ~title:
      "Ablation A6. Caching threshold x cache capacity (ADL replay, 4 nodes, \
       cooperative)."
    Metrics.Table.
      [
        right "Capacity" (fun r -> fmt_i r.capacity_t);
        right "Threshold (s)" (fun r -> fmt_f ~decimals:1 r.threshold_t);
        right "Mean response (s)" (fun r -> sec r.mean_response_thr);
        right "Hits" (fun r -> fmt_i r.hits_thr);
        right "Inserts" (fun r -> fmt_i r.inserts_thr);
        right "Evictions" (fun r -> fmt_i r.evictions_thr);
      ]
    (fun ~jobs:_ -> ablation_threshold ())

(* ------------------------------------------------------------------ *)
(* A7 — protocol-message loss *)

type loss_row = {
  loss : float;
  hits_l : int;
  upper_l : int;
  fetch_timeouts_l : int;
  mean_response_loss : float;
}

let ablation_loss ?(seed = default_seed) ?(losses = [ 0.0; 0.05; 0.2; 0.5 ])
    ?(nodes = 4) () =
  let trace =
    Workload.Synthetic.coop ~seed ~n:1600 ~n_unique:1122 ~locality:0.08 ()
  in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  List.map
    (fun loss ->
      let cfg =
        Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
          ~net_loss:loss ~fetch_timeout:(Some 0.5) ~seed ()
      in
      let r = Cluster_runner.run cfg ~trace ~n_streams:16 () in
      {
        loss;
        hits_l = r.Cluster_runner.hits;
        upper_l = upper;
        fetch_timeouts_l =
          Metrics.Counter.get r.Cluster_runner.counters Server.K.fetch_timeouts;
        mean_response_loss = Cluster_runner.mean_response r;
      })
    losses

let loss_target =
  one_table "ablation-loss" ~doc:"message loss + timeout recovery"
    ~title:
      "Ablation A7. Protocol-message loss with 0.5 s fetch timeout (4 nodes, \
       Table-5 workload)."
    Metrics.Table.
      [
        right "Loss" (fun r -> fmt_pct r.loss);
        right "Hits" (fun r -> fmt_i r.hits_l);
        right "% of UB" (fun r -> of_upper r.hits_l r.upper_l);
        right "Fetch timeouts" (fun r -> fmt_i r.fetch_timeouts_l);
        right "Mean response (s)" (fun r -> sec r.mean_response_loss);
      ]
    (fun ~jobs:_ -> ablation_loss ())

type consistency_row = {
  latency : float;
  false_hits : int;
  false_miss_concurrent_c : int;
  false_miss_duplicate_c : int;
  hits_c : int;
}

let ablation_consistency ?(seed = default_seed)
    ?(latencies = [ 0.0002; 0.005; 0.05; 0.5 ]) ?(nodes = 8) () =
  (* Short executions (50 ms) make the inconsistency window latency-bound:
     a peer stays ignorant of an insert for [latency] seconds, so higher
     latency means more duplicate executions of the same hot query. *)
  let trace =
    Workload.Synthetic.coop ~seed ~n:1600 ~n_unique:1122 ~locality:0.08
      ~demand:0.05 ()
  in
  List.map
    (fun latency ->
      (* A small cache keeps replacement active, so delete broadcasts race
         with remote fetches — the false-hit window of §4.2. *)
      let cfg =
        Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
          ~broadcast_latency:(Some latency) ~cache_threshold:0.01
          ~cache_capacity:40 ~seed ()
      in
      let r = Cluster_runner.run cfg ~trace ~n_streams:16 () in
      let get = Metrics.Counter.get r.Cluster_runner.counters in
      {
        latency;
        false_hits = get Server.K.false_hit;
        false_miss_concurrent_c = get Server.K.false_miss_concurrent;
        false_miss_duplicate_c = get Server.K.false_miss_duplicate;
        hits_c = r.Cluster_runner.hits;
      })
    latencies

let consistency_target =
  one_table "ablation-consistency" ~doc:"anomalies vs update delay"
    ~title:
      "Ablation A3. Consistency anomalies vs directory-update delay (8 \
       nodes, 50 ms CGIs, cache size 40)."
    Metrics.Table.
      [
        right "Update delay (s)" (fun r -> f4 r.latency);
        right "False hits" (fun r -> fmt_i r.false_hits);
        right "FM concurrent" (fun r -> fmt_i r.false_miss_concurrent_c);
        right "FM duplicate" (fun r -> fmt_i r.false_miss_duplicate_c);
        right "Hits" (fun r -> fmt_i r.hits_c);
      ]
    (fun ~jobs:_ -> ablation_consistency ())

type fault_row = {
  drop_f : float;
  mtbf_f : float;
  hits_f : int;
  upper_f : int;
  timeouts_f : int;
  retries_f : int;
  crashes_f : int;
  rejected_f : int;
  purged_f : int;
  net_lost_f : int;
  mean_response_f : float;
}

let ablation_faults ?(seed = default_seed) ?(drops = [ 0.0; 0.05; 0.2 ])
    ?(mtbfs = [ 0.; 60.; 15. ]) ?(nodes = 4) () =
  let trace =
    Workload.Synthetic.coop ~seed ~n:1600 ~n_unique:1122 ~locality:0.08 ()
  in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  List.concat_map
    (fun drop ->
      List.map
        (fun mtbf ->
          (* mtbf = 0 means "no crashes"; a 2 s repair keeps churn high
             enough that restarts also happen within the run. *)
          let node =
            if mtbf > 0. then Some { Sim.Fault.mtbf; mttr = 2.0 } else None
          in
          let fault = Sim.Fault.make ~drop ?node ~horizon:600. () in
          let cfg =
            Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
              ~fault:(Some fault) ~fetch_timeout:(Some 0.5) ~fetch_retries:2
              ~fetch_backoff:2.0 ~seed ()
          in
          (* Route via the front-end so requests fail over around down
             nodes (Per_stream keeps the paper's pinning while healthy). *)
          let r =
            Cluster_runner.run cfg ~trace ~n_streams:16
              ~router:Router.Per_stream ()
          in
          let get = Metrics.Counter.get r.Cluster_runner.counters in
          {
            drop_f = drop;
            mtbf_f = mtbf;
            hits_f = r.Cluster_runner.hits;
            upper_f = upper;
            timeouts_f = get Server.K.fetch_timeouts;
            retries_f = get Server.K.fetch_retries;
            crashes_f = get Server.K.crashes;
            rejected_f = get Server.K.rejected_down;
            purged_f = get Server.K.dir_suspect_purged;
            net_lost_f = r.Cluster_runner.net_lost;
            mean_response_f = Cluster_runner.mean_response r;
          })
        mtbfs)
    drops

let faults_target =
  one_table "ablation-faults" ~doc:"drop-rate x crash-frequency degradation"
    ~title:
      "Ablation A8. Injected faults: drop-rate x crash-frequency with 0.5 s \
       fetch timeout, 2 retries (4 nodes, Table-5 workload)."
    Metrics.Table.
      [
        right "Drop" (fun r -> fmt_pct r.drop_f);
        right "MTBF (s)" (fun r -> swept ~zero:"-" r.mtbf_f);
        right "Hits" (fun r -> fmt_i r.hits_f);
        right "% of UB" (fun r -> of_upper r.hits_f r.upper_f);
        right "Timeouts" (fun r -> fmt_i r.timeouts_f);
        right "Retries" (fun r -> fmt_i r.retries_f);
        right "Crashes" (fun r -> fmt_i r.crashes_f);
        right "503s" (fun r -> fmt_i r.rejected_f);
        right "Purges" (fun r -> fmt_i r.purged_f);
        right "Msgs lost" (fun r -> fmt_i r.net_lost_f);
        right "Mean response (s)" (fun r -> sec r.mean_response_f);
      ]
    (fun ~jobs:_ -> ablation_faults ())

type partition_row = {
  duration_pt : float;
  period_pt : float;
  hits_pt : int;
  false_hits_pt : int;
  false_miss_dup_pt : int;
  ae_rounds_pt : int;
  ae_pulled_pt : int;
  healed_pt : int;
  drops_partition_pt : int;
  mean_response_pt : float;
}

let ablation_partition ?(seed = default_seed)
    ?(durations = [ 0.; 10.; 20. ]) ?(periods = [ 0.; 2.; 10. ]) () =
  (* Short executions and a pinch of locality keep the two halves working
     the same hot keys, so a split produces divergence worth repairing. *)
  let trace =
    Workload.Synthetic.coop ~seed ~n:1600 ~n_unique:1122 ~locality:0.08
      ~demand:0.05 ()
  in
  List.concat_map
    (fun duration ->
      List.map
        (fun period ->
          let partitions =
            if duration > 0. then
              [
                {
                  Sim.Fault.pname = "halves";
                  groups = [ [ 0; 1 ]; [ 2; 3 ] ];
                  cut_at = 1.0;
                  heal_at = 1.0 +. duration;
                };
              ]
            else []
          in
          let fault =
            if partitions = [] then None
            else Some (Sim.Fault.make ~partitions ())
          in
          let cfg =
            Config.make ~n_nodes:4 ~cache_mode:Config.Cooperative
              ~cache_threshold:0.01 ~fault
              ~fetch_timeout:(Some 0.5)
              ~anti_entropy_period:(if period > 0. then Some period else None)
              ~seed ()
          in
          let r =
            Cluster_runner.run cfg ~trace ~n_streams:16
              ~router:Router.Per_stream ()
          in
          let get = Metrics.Counter.get r.Cluster_runner.counters in
          {
            duration_pt = duration;
            period_pt = period;
            hits_pt = r.Cluster_runner.hits;
            false_hits_pt = get Server.K.false_hit;
            false_miss_dup_pt = get Server.K.false_miss_duplicate;
            ae_rounds_pt = get Server.K.anti_entropy_rounds;
            ae_pulled_pt = get Server.K.anti_entropy_pulled;
            healed_pt = get Server.K.partitions_healed;
            drops_partition_pt = r.Cluster_runner.net_lost_partition;
            mean_response_pt = Cluster_runner.mean_response r;
          })
        periods)
    durations

let partition_target =
  one_table "ablation-partition" ~doc:"partition duration x anti-entropy period"
    ~title:
      "Ablation A9. Network partition (halves of a 4-node cluster, cut at \
       t=1 s) x anti-entropy period (Table-5 workload)."
    Metrics.Table.
      [
        right "Partition (s)" (fun r -> swept ~zero:"-" r.duration_pt);
        right "AE period (s)" (fun r -> swept ~zero:"off" r.period_pt);
        right "Hits" (fun r -> fmt_i r.hits_pt);
        right "False hits" (fun r -> fmt_i r.false_hits_pt);
        right "Dup execs" (fun r -> fmt_i r.false_miss_dup_pt);
        right "AE rounds" (fun r -> fmt_i r.ae_rounds_pt);
        right "AE pulled" (fun r -> fmt_i r.ae_pulled_pt);
        right "Healed" (fun r -> fmt_i r.healed_pt);
        right "Msgs cut" (fun r -> fmt_i r.drops_partition_pt);
        right "Mean response (s)" (fun r -> sec r.mean_response_pt);
      ]
    (fun ~jobs:_ -> ablation_partition ())

(* ------------------------------------------------------------------ *)
(* A10 — directory-update batching *)

type batching_row = {
  nodes_bt : int;
  interval_bt : float;  (* 0. = batching off (batch_max 1) *)
  updates_bt : int;  (* directory updates originated *)
  msgs_bt : int;  (* unicast messages actually sent *)
  bytes_bt : int;  (* wire bytes of those messages *)
  batches_bt : int;  (* Batch envelopes among them *)
  batched_updates_bt : int;  (* updates those envelopes carried *)
  coalesced_bt : int;  (* buffered updates overwritten before sending *)
  hits_bt : int;
  mean_response_bt : float;
}

let ablation_batching ?(seed = default_seed) ?(node_counts = [ 2; 4; 8; 16 ])
    ?(intervals = [ 0.; 0.005; 0.02; 0.05 ]) ?(n_requests = 4000) () =
  (* Same write-heavy regime as the locking ablation: every CGI result is
     unique and cacheable, so each request broadcasts one insert — the
     directory-metadata worst case that batching targets. The WebStone
     file mix generates no directory traffic at all, which is the other
     end of the spectrum and needs no batching. An interval of 0 means
     batching off ([batch_max = 1]), the exact pre-batching path. *)
  let trace = Workload.Synthetic.unique_cacheable ~n:n_requests ~demand:0.005 in
  List.concat_map
    (fun nodes ->
      List.map
        (fun interval ->
          let batching = interval > 0. in
          let cfg =
            Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
              ~cache_threshold:0.001
              ~batch_max:(if batching then 64 else 1)
              ~batch_flush_interval:(if batching then Some interval else None)
              ~seed ()
          in
          let r = Cluster_runner.run cfg ~trace ~n_streams:(4 * nodes) () in
          let get = Metrics.Counter.get r.Cluster_runner.counters in
          {
            nodes_bt = nodes;
            interval_bt = interval;
            updates_bt =
              get Server.K.broadcast_insert + get Server.K.broadcast_delete;
            msgs_bt = get Server.K.info_msgs;
            bytes_bt = get Server.K.info_bytes;
            batches_bt = get Server.K.batches_sent;
            batched_updates_bt = get Server.K.batch_updates;
            coalesced_bt = get Server.K.batch_coalesced;
            hits_bt = r.Cluster_runner.hits;
            mean_response_bt = Cluster_runner.mean_response r;
          })
        intervals)
    node_counts

let batching_target =
  one_table "ablation-batching" ~doc:"directory-update batching: flush x nodes"
    ~title:
      "Ablation A10. Directory-update batching: flush interval x cluster \
       size (all-insert 5 ms CGIs, batch_max 64, 4 streams/node)."
    Metrics.Table.
      [
        right "# nodes" (fun r -> fmt_i r.nodes_bt);
        right "Flush (s)" (fun r -> swept ~zero:"off" r.interval_bt);
        right "Updates" (fun r -> fmt_i r.updates_bt);
        right "Msgs" (fun r -> fmt_i r.msgs_bt);
        right "KB" (fun r -> kb r.bytes_bt);
        right "Batches" (fun r -> fmt_i r.batches_bt);
        right "Batched upd" (fun r -> fmt_i r.batched_updates_bt);
        right "Coalesced" (fun r -> fmt_i r.coalesced_bt);
        right "Hits" (fun r -> fmt_i r.hits_bt);
        right "Mean response (s)" (fun r -> sec r.mean_response_bt);
      ]
    (fun ~jobs:_ -> ablation_batching ())

(* ------------------------------------------------------------------ *)
(* A11 — metadata plane: replicated vs batched vs sharded (+hotspot) *)

type dirmode_row = {
  nodes_dm : int;
  variant_dm : string;
  dir_msgs_dm : int;  (* info_msgs + dir_lookup_msgs *)
  dir_bytes_dm : int;  (* info_bytes + dir_lookup_bytes *)
  mem_mean_dm : float;  (* mean per-node directory entries at run end *)
  mem_max_dm : int;  (* the most loaded node *)
  fwd_dm : int;  (* forwarded directory lookups *)
  lcache_hits_dm : int;  (* positive + negative lookup-cache hits *)
  promotions_dm : int;  (* hotspot promotions at shard homes *)
  hits_dm : int;
  hit_latency_dm : float;  (* mean cache-hit service time, seconds *)
  mean_response_dm : float;
}

let ablation_dirmode ?jobs ?(seed = default_seed)
    ?(node_counts = [ 8; 64; 256; 512 ]) ?(n_requests = 3000) () =
  (* A hot-headed read-mostly mix: a quarter of the requests are unique
     inserts (metadata writes), the rest re-reference a 24-key Zipf head
     (metadata reads). Replicated pays O(n) messages per insert and keeps
     the full key population in every replica; sharded pays O(1) per
     insert plus a forwarded round trip per uncached remote lookup, and
     each node holds only its ring partition plus the bounded lookup
     cache. The hotspot variant promotes head keys to 3 ring successors.
     Thresholds: with a positive-lookup TTL of 5 s, a shard home sees
     each node at most every 5 s per hot key, so a promotion threshold of
     1/s needs ~5 live nodes re-referencing the key — hot keys promote at
     every swept cluster size, cold keys never do. *)
  let trace =
    Workload.Synthetic.coop ~seed ~n:n_requests
      ~n_unique:(Stdlib.max 1 (n_requests / 4))
      ~n_hot:24 ~zipf_s:1.1 ~demand:0.005 ()
  in
  let variants =
    [ "replicated"; "batched"; "sharded"; "sharded+hotspot" ]
  in
  (* Each (nodes, variant) point is an independent deterministic run, so
     the grid sweeps on a domain pool; [Sweep.map_list] keeps point
     order, so output is identical whatever [jobs] is. *)
  let points =
    List.concat_map
      (fun nodes -> List.map (fun variant -> (nodes, variant)) variants)
      node_counts
  in
  Sim.Sweep.map_list ?jobs
    (fun (nodes, variant) ->
          let cfg =
            match variant with
            | "replicated" ->
                Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
                  ~cache_threshold:0.001 ~seed ()
            | "batched" ->
                Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
                  ~cache_threshold:0.001 ~batch_max:8
                  ~batch_flush_interval:(Some 0.005) ~seed ()
            | "sharded" ->
                Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
                  ~cache_threshold:0.001 ~dir_mode:Config.Sharded ~seed ()
            | "sharded+hotspot" ->
                Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
                  ~cache_threshold:0.001 ~dir_mode:Config.Sharded
                  ~hotspot_threshold:1.0 ~hotspot_window:2.0
                  ~hotspot_replicas:3 ~seed ()
            | _ -> assert false
          in
          (* Streams scale with the cluster up to a cap, but never below
             one per node, so every node serves clients at every size. *)
          let n_streams =
            Stdlib.max nodes (Stdlib.min (4 * nodes) 256)
          in
          let r = Cluster_runner.run cfg ~trace ~n_streams () in
          let get = Metrics.Counter.get r.Cluster_runner.counters in
          let entries = r.Cluster_runner.dir_entries in
          {
            nodes_dm = nodes;
            variant_dm = variant;
            dir_msgs_dm = get Server.K.info_msgs + get Server.K.dir_lookup_msgs;
            dir_bytes_dm =
              get Server.K.info_bytes + get Server.K.dir_lookup_bytes;
            mem_mean_dm =
              (if Array.length entries = 0 then 0.
               else
                 float_of_int (Array.fold_left ( + ) 0 entries)
                 /. float_of_int (Array.length entries));
            mem_max_dm = Array.fold_left Stdlib.max 0 entries;
            fwd_dm = get Server.K.shard_fwd_lookups;
            lcache_hits_dm =
              get Server.K.lcache_pos_hits + get Server.K.lcache_neg_hits;
            promotions_dm = get Server.K.hotspot_promotions;
            hits_dm = r.Cluster_runner.hits;
            hit_latency_dm =
              Metrics.Sample.mean r.Cluster_runner.hit_latency;
            mean_response_dm = Cluster_runner.mean_response r;
          })
    points

let dirmode_target =
  one_table "ablation-dirmode"
    ~doc:"metadata plane: replicated vs batched vs sharded (+hotspot)"
    ~title:
      "Ablation A11. Metadata plane x cluster size (hot-headed coop mix, \
       24-key Zipf 1.1 head, 5 ms CGIs): replicated broadcast vs batched \
       broadcast vs consistent-hash sharding (+hotspot replication)."
    Metrics.Table.
      [
        right "# nodes" (fun r -> fmt_i r.nodes_dm);
        left "Plane" (fun r -> r.variant_dm);
        right "Dir msgs" (fun r -> fmt_i r.dir_msgs_dm);
        right "Dir KB" (fun r -> kb r.dir_bytes_dm);
        right "Mem mean" (fun r -> Printf.sprintf "%.1f" r.mem_mean_dm);
        right "Mem max" (fun r -> fmt_i r.mem_max_dm);
        right "Fwd" (fun r -> fmt_i r.fwd_dm);
        right "LC hits" (fun r -> fmt_i r.lcache_hits_dm);
        right "Promoted" (fun r -> fmt_i r.promotions_dm);
        right "Hits" (fun r -> fmt_i r.hits_dm);
        right "Hit lat (ms)" (fun r ->
            Printf.sprintf "%.2f" (1000. *. r.hit_latency_dm));
        right "Mean response (s)" (fun r -> sec r.mean_response_dm);
      ]
    (fun ~jobs -> ablation_dirmode ~jobs ())

(* ------------------------------------------------------------------ *)
(* A12 — time-varying scenario: flash crowd + rolling churn *)

type scenario_row = {
  variant_sc : string;
  phase_sc : string;  (* "all" carries run-wide counters, then one row per phase *)
  n_sc : int;  (* responses completing inside the phase *)
  mean_sc : float;
  p50_sc : float;
  p99_sc : float;
  hits_sc : int;  (* run-wide fields below: populated on the "all" row only *)
  hit_ratio_sc : float;
  dir_msgs_sc : int;
  crashes_sc : int;
  redirects_sc : int;
  net_lost_sc : int;
}

let ablation_scenario ?jobs ?(seed = default_seed) ?(n_nodes = 8)
    ?(n_requests = 4000) () =
  (* The regime PR 5's sharded plane was built for, applied as one run:
     a hot-headed coop mix whose middle third is hit by a flash crowd
     (80 % of CGI traffic onto an 8-key Zipf head) while the cluster
     rides rolling churn (one leave every ~3 s, 1.5 s down). Replicated
     keeps broadcasting every insert to n-1 peers through the turbulence;
     sharded+hotspot unicasts to homes, promotes the crowd head, and
     re-announces across each handoff. Per-phase latency rows come from
     bucketing completions by the scenario's phase schedule. *)
  let trace =
    Workload.Synthetic.coop ~seed ~n:n_requests
      ~n_unique:(Stdlib.max 1 (n_requests / 4))
      ~n_hot:24 ~zipf_s:1.1 ~demand:0.02 ()
  in
  let scenario =
    Workload.Scenario.make ~duration:12.
      ~flash:
        (Workload.Scenario.flash_crowd ~at:3. ~duration:3. ~decay:3.
           ~fraction:0.8 ~keys:8 ~zipf_s:1.0 ~demand:0.02 ())
      ()
  in
  let churn = Sim.Fault.churn ~rate:0.3 ~downtime:1.5 ~poisson:true () in
  let fault = Sim.Fault.make ~churn ~horizon:120. () in
  let variants = [ "replicated"; "sharded+hotspot" ] in
  List.concat
  @@ Sim.Sweep.map_list ?jobs
    (fun variant ->
      let cfg =
        match variant with
        | "replicated" ->
            Config.make ~n_nodes ~cache_mode:Config.Cooperative
              ~cache_threshold:0.001 ~scenario:(Some scenario)
              ~fault:(Some fault) ~fetch_timeout:(Some 0.25) ~fetch_retries:1
              ~seed ()
        | "sharded+hotspot" ->
            Config.make ~n_nodes ~cache_mode:Config.Cooperative
              ~cache_threshold:0.001 ~dir_mode:Config.Sharded
              ~hotspot_threshold:1.0 ~hotspot_window:2.0 ~hotspot_replicas:3
              ~scenario:(Some scenario) ~fault:(Some fault)
              ~fetch_timeout:(Some 0.25) ~fetch_retries:1 ~seed ()
        | _ -> assert false
      in
      let phases = Workload.Scenario.phases scenario in
      let phase_samples =
        List.map (fun (name, _, _) -> (name, Metrics.Sample.create ())) phases
      in
      let observe ~time dt =
        let name = Workload.Scenario.phase_of scenario ~now:time in
        Metrics.Sample.add (List.assoc name phase_samples) dt
      in
      let r =
        Cluster_runner.run cfg ~trace ~n_streams:(4 * n_nodes)
          ~router:Router.Per_stream ~observe ()
      in
      let get = Metrics.Counter.get r.Cluster_runner.counters in
      let q s p = match Metrics.Sample.quantile_opt s p with
        | Some v -> v
        | None -> 0.
      in
      let all_row =
        {
          variant_sc = variant;
          phase_sc = "all";
          n_sc = Metrics.Sample.count r.Cluster_runner.response;
          mean_sc = Cluster_runner.mean_response r;
          p50_sc = q r.Cluster_runner.response 0.5;
          p99_sc = q r.Cluster_runner.response 0.99;
          hits_sc = r.Cluster_runner.hits;
          hit_ratio_sc = r.Cluster_runner.hit_ratio;
          dir_msgs_sc = get Server.K.info_msgs + get Server.K.dir_lookup_msgs;
          crashes_sc = get Server.K.crashes;
          redirects_sc = get "scenario_flash_redirects";
          net_lost_sc = r.Cluster_runner.net_lost;
        }
      in
      all_row
      :: List.map
           (fun (name, sample) ->
             {
               variant_sc = variant;
               phase_sc = name;
               n_sc = Metrics.Sample.count sample;
               mean_sc = Metrics.Sample.mean sample;
               p50_sc = q sample 0.5;
               p99_sc = q sample 0.99;
               hits_sc = 0;
               hit_ratio_sc = 0.;
               dir_msgs_sc = 0;
               crashes_sc = 0;
               redirects_sc = 0;
               net_lost_sc = 0;
             })
           phase_samples)
    variants

let scenario_target =
  (* Run-wide columns are filled on each variant's "all" row only. *)
  let run_wide cell r = if r.phase_sc = "all" then cell r else "" in
  one_table "ablation-scenario"
    ~doc:"flash crowd + rolling churn: replicated vs sharded, per phase"
    ~title:
      "Ablation A12. Time-varying scenario (flash crowd onto an 8-key head \
       for the middle of the run + rolling churn, one leave per ~3 s): \
       replicated vs sharded+hotspot metadata plane, per phase."
    Metrics.Table.
      [
        left "Plane" (fun r -> r.variant_sc);
        left "Phase" (fun r -> r.phase_sc);
        right "N" (fun r -> fmt_i r.n_sc);
        right "Mean (s)" (fun r -> sec r.mean_sc);
        right "p50 (s)" (fun r -> sec r.p50_sc);
        right "p99 (s)" (fun r -> sec r.p99_sc);
        right "Hits" (run_wide (fun r -> fmt_i r.hits_sc));
        right "Hit ratio"
          (run_wide (fun r ->
               Printf.sprintf "%.1f%%" (100. *. r.hit_ratio_sc)));
        right "Dir msgs" (run_wide (fun r -> fmt_i r.dir_msgs_sc));
        right "Crashes" (run_wide (fun r -> fmt_i r.crashes_sc));
        right "Redirects" (run_wide (fun r -> fmt_i r.redirects_sc));
        right "Lost" (run_wide (fun r -> fmt_i r.net_lost_sc));
      ]
    (fun ~jobs -> ablation_scenario ~jobs ())

(* ------------------------------------------------------------------ *)
(* A13 — freshness: fixed vs adaptive TTL under a flash crowd *)

type freshness_row = {
  dirmode_fr : string;
  variant_fr : string;
  stale_mean_fr : float;
  stale_p99_fr : float;
  hit_ratio_fr : float;
  cgi_execs_fr : int;
  refreshes_fr : int;
  refresh_saved_ms_fr : int;
  stale_served_fr : int;
  dir_bytes_fr : int;
  mean_response_fr : float;
}

let ablation_freshness ?jobs ?(seed = default_seed) ?(n_nodes = 4)
    ?(n_requests = 4000) () =
  (* The staleness x recompute-cost x bytes-moved sweep: the A12 flash
     crowd (80 % of CGI traffic onto an 8-key head for the middle of the
     run, no churn) replayed under three fixed TTLs bracketing the
     regime, the adaptive controller, and adaptive plus the proactive
     refresh daemon — on both metadata planes. Fixed TTLs trace the
     whole-cache tradeoff curve (short = fresh but recompute-heavy and
     chatty, long = cheap but stale); the controller picks a point per
     key from its observed rate and cost, and the [default_ttl = 8]
     anchor on the adaptive rows defines the stale_served counter
     ("hits a fixed-8 cache would have refused"). *)
  let trace =
    Workload.Synthetic.coop ~seed ~n:n_requests
      ~n_unique:(Stdlib.max 1 (n_requests / 4))
      ~n_hot:24 ~zipf_s:1.1 ~demand:0.02 ()
  in
  let scenario =
    Workload.Scenario.make ~duration:12.
      ~flash:
        (Workload.Scenario.flash_crowd ~at:3. ~duration:3. ~decay:3.
           ~fraction:0.8 ~keys:8 ~zipf_s:1.0 ~demand:0.02 ())
      ()
  in
  let variants =
    [ "fixed-2"; "fixed-8"; "fixed-32"; "adaptive"; "adaptive+refresh" ]
  in
  let points =
    List.concat_map
      (fun dir_mode ->
        List.map (fun variant -> (dir_mode, variant)) variants)
      [ Config.Replicated; Config.Sharded ]
  in
  Sim.Sweep.map_list ?jobs
    (fun (dir_mode, variant) ->
          let make ?default_ttl ?freshness ?refresh_budget () =
            Config.make ~n_nodes ~cache_mode:Config.Cooperative
              ~cache_threshold:0.001 ~dir_mode ?default_ttl ?freshness
              ?refresh_budget ~scenario:(Some scenario)
              ~fetch_timeout:(Some 0.25) ~fetch_retries:1 ~seed ()
          in
          let cfg =
            match variant with
            | "fixed-2" -> make ~default_ttl:(Some 2.) ()
            | "fixed-8" -> make ~default_ttl:(Some 8.) ()
            | "fixed-32" -> make ~default_ttl:(Some 32.) ()
            | "adaptive" ->
                make ~default_ttl:(Some 8.)
                  ~freshness:Cache.Freshness.Adaptive ()
            | "adaptive+refresh" ->
                make ~default_ttl:(Some 8.)
                  ~freshness:Cache.Freshness.Adaptive ~refresh_budget:4. ()
            | _ -> assert false
          in
          let r =
            Cluster_runner.run cfg ~trace ~n_streams:(4 * n_nodes) ()
          in
          let get = Metrics.Counter.get r.Cluster_runner.counters in
          let st = r.Cluster_runner.staleness in
          {
            dirmode_fr = Config.dir_mode_to_string dir_mode;
            variant_fr = variant;
            stale_mean_fr = Metrics.Histogram.mean st;
            stale_p99_fr =
              (match Metrics.Histogram.quantile_opt st 0.99 with
              | Some v -> v
              | None -> 0.);
            hit_ratio_fr = r.Cluster_runner.hit_ratio;
            cgi_execs_fr = get Server.K.cgi_execs;
            refreshes_fr = get Server.K.refreshes;
            refresh_saved_ms_fr = get Server.K.refresh_saved_ms;
            stale_served_fr = get Server.K.stale_served;
            dir_bytes_fr =
              get Server.K.info_bytes + get Server.K.dir_lookup_bytes;
            mean_response_fr = Cluster_runner.mean_response r;
          })
    points

let freshness_target =
  one_table "ablation-freshness"
    ~doc:"fixed vs adaptive TTL (+refresh) under a flash crowd"
    ~title:
      "Ablation A13. Freshness policy x metadata plane under the A12 flash \
       crowd (no churn): fixed whole-cache TTLs (2/8/32 s) vs the per-key \
       adaptive controller vs adaptive + proactive refresh (4 \
       re-execs/s/node)."
    Metrics.Table.
      [
        left "Plane" (fun r -> r.dirmode_fr);
        left "Policy" (fun r -> r.variant_fr);
        right "Stale mean (s)" (fun r -> Printf.sprintf "%.3f" r.stale_mean_fr);
        right "Stale p99 (s)" (fun r -> Printf.sprintf "%.3f" r.stale_p99_fr);
        right "Hit ratio" (fun r ->
            Printf.sprintf "%.1f%%" (100. *. r.hit_ratio_fr));
        right "CGI execs" (fun r -> fmt_i r.cgi_execs_fr);
        right "Refreshes" (fun r -> fmt_i r.refreshes_fr);
        right "Saved (ms)" (fun r -> fmt_i r.refresh_saved_ms_fr);
        right "Stale>8s" (fun r -> fmt_i r.stale_served_fr);
        right "Dir KB" (fun r -> kb r.dir_bytes_fr);
        right "Mean response (s)" (fun r -> sec r.mean_response_fr);
      ]
    (fun ~jobs -> ablation_freshness ~jobs ())

(* ------------------------------------------------------------------ *)
(* Traced replay: where a request's time goes, and contention profiles *)

let breakdown_target =
  (* The cooperative 4-node coop-mix replay that [bench/main.exe micro]
     times, with tracing on. *)
  let output ~jobs:_ =
    let seed = default_seed in
    let trace =
      Workload.Synthetic.coop ~seed ~n:2_000 ~n_unique:1400 ~locality:0.08 ()
    in
    let cfg =
      Config.make ~n_nodes:4 ~cache_mode:Config.Cooperative ~trace:true ~seed ()
    in
    let r = Cluster_runner.run cfg ~trace ~n_streams:16 () in
    (match r.Cluster_runner.tracer with
    | None -> []
    | Some tr -> [ Table (Trace_report.breakdown_table tr ~root:"request") ])
    @ [ Table (Trace_report.histogram_table r.Cluster_runner.wait_histograms) ]
  in
  {
    name = "breakdown";
    doc = "traced replay: latency breakdown + contention histograms";
    output;
  }

(* ------------------------------------------------------------------ *)

let targets =
  [
    table1_target;
    table2_target;
    figure3_target;
    figure4_target;
    table3_target;
    table4_target;
    table5_target;
    table6_target;
    policy_target;
    locking_target;
    consistency_target;
    protocol_target;
    routing_target;
    threshold_target;
    loss_target;
    faults_target;
    partition_target;
    batching_target;
    dirmode_target;
    scenario_target;
    freshness_target;
    breakdown_target;
  ]
