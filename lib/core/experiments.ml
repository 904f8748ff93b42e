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

(* A one-table target whose driver also returns the trace's upper bound
   on hits, which its [columns] read. *)
let bounded_table name ~doc ~title columns driver =
  let output ~jobs:_ =
    let upper, rows = driver () in
    [ table ~title (columns upper) rows ]
  in
  { name; doc; output }

let sec = Metrics.Table.fmt_f ~decimals:3
let f4 = Metrics.Table.fmt_f ~decimals:4
let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.)

(* A swept float whose zero point means "off" or "none". *)
let swept ~zero v = if v = 0. then zero else Printf.sprintf "%g" v

(* An ablation row pairs a swept point with the run it produced; these
   read the run. *)
let count r key = Metrics.Counter.get r.Cluster_runner.counters key
let counter_cell key (_, r) = Metrics.Table.fmt_i (count r key)
let hits_cell (_, r) = Metrics.Table.fmt_i r.Cluster_runner.hits
let mean_cell (_, r) = sec (Cluster_runner.mean_response r)

(* Hits as a share of the offline upper bound. *)
let of_upper upper (_, r) =
  Metrics.Table.fmt_pct
    (float_of_int r.Cluster_runner.hits /. float_of_int (Stdlib.max 1 upper))

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
   one-second requests run back to back on one stream. *)
let table4_run ~seed ~ups ~n_requests =
  let cfg = Config.make ~n_nodes:8 ~cache_mode:Config.Cooperative ~seed () in
  let trace = Workload.Synthetic.uncacheable ~n:n_requests ~demand:1.0 in
  let answered = ref 0 in
  (* The pseudo-server injects the replicated plane's updates, the plane
     the configuration above selects, until the stream is answered. Each
     update leaves from a child of its own, so one update's transmission
     never delays the next injection. *)
  let warmup cluster =
    match Server.plane cluster with
    | Server.Replicated plane when ups > 0 ->
        let inbox = Replicated_plane.info_mailbox plane 0 in
        Sim.Engine.spawn_child (fun () ->
            let k = ref 0 in
            Node.every
              ~stopped:(fun () -> !answered >= n_requests)
              ~period:(1. /. float_of_int ups)
              (fun () ->
                incr k;
                let src = 1 + (!k mod 7) in
                let meta =
                  Cache.Meta.make
                    ~key:(Printf.sprintf "GET /pseudo?i=%d" !k)
                    ~owner:src ~size:4096 ~exec_time:1.0
                    ~created:(Sim.Engine.now ()) ~expires:None
                in
                let update =
                  {
                    Node.info = Replicated_plane.Update.Insert meta;
                    ack = None;
                    span = 0;
                  }
                in
                Sim.Engine.spawn_child (fun () ->
                    Sim.Net.send (Server.net cluster) ~src ~dst:0 ~bytes:128
                      inbox update)))
    | Server.Replicated _ | Server.Local | Server.Sharded _ -> ()
  in
  let r =
    Cluster_runner.run cfg ~trace ~n_streams:1
      ~assign:(fun _ -> 0)
      ~warmup
      ~observe:(fun ~time:_ _ -> incr answered)
      ()
  in
  ( Cluster_runner.mean_response r,
    Metrics.Counter.get r.Cluster_runner.per_node_counters.(0)
      Server.K.info_applied )

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

(* The Table-5 workload, which most ablations replay too: 1,600 CGI
   requests over 1,122 distinct queries. *)
let table5_trace ?(n = 1600) ?(n_unique = 1122) ?demand seed =
  Workload.Synthetic.coop ~seed ~n ~n_unique ~locality:0.08 ?demand ()

let hit_ratio_table ?(seed = default_seed) ?(node_counts = [ 1; 2; 4; 6; 8 ])
    ?n ?n_unique ~cache_size () =
  let trace = table5_trace ?n ?n_unique seed in
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

let ablation_policy ?(seed = default_seed) ?(cache_size = 20) ?(nodes = 4) () =
  let trace = table5_trace seed in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  ( upper,
    List.map
      (fun policy ->
        let cfg =
          Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
            ~cache_capacity:cache_size ~policy ~seed ()
        in
        (policy, Cluster_runner.run cfg ~trace ~n_streams:16 ()))
      Cache.Policy.all )

let policy_target =
  bounded_table "ablation-policy" ~doc:"replacement policies under overflow"
    ~title:
      "Ablation A1. Replacement policy under overflow (cache size 20, 4 \
       nodes, cooperative)."
    (fun upper ->
      Metrics.Table.
        [
          left "Policy" (fun (policy, _) -> Cache.Policy.to_string policy);
          right "Hits" hits_cell;
          right "% of UB" (of_upper upper);
          right "Mean response (s)" mean_cell;
        ])
    (fun () -> ablation_policy ())

(* ------------------------------------------------------------------ *)
(* A2 — locking granularity *)

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
      (granularity, Cluster_runner.run cfg ~trace ~n_streams:(12 * nodes) ()))
    [ Cache.Directory.Global; Cache.Directory.Per_table; Cache.Directory.Per_entry ]

let locking_target =
  one_table "ablation-locking" ~doc:"directory locking granularity"
    ~title:"Ablation A2. Directory locking granularity (4 nodes, cooperative)."
    Metrics.Table.
      [
        left "Granularity" (fun (granularity, _) ->
            granularity_name granularity);
        right "Mean response (s)" (fun (_, r) ->
            f4 (Cluster_runner.mean_response r));
        right "Read locks" (fun (_, r) ->
            fmt_i (fst r.Cluster_runner.dir_locks));
        right "Write locks" (fun (_, r) ->
            fmt_i (snd r.Cluster_runner.dir_locks));
      ]
    (fun ~jobs:_ -> ablation_locking ())

(* ------------------------------------------------------------------ *)
(* A3 — consistency anomalies vs latency *)

let ablation_consistency ?(seed = default_seed)
    ?(latencies = [ 0.0002; 0.005; 0.05; 0.5 ]) ?(nodes = 8) () =
  (* Short executions (50 ms) make the inconsistency window latency-bound:
     a peer stays ignorant of an insert for [latency] seconds, so higher
     latency means more duplicate executions of the same hot query. *)
  let trace = table5_trace ~demand:0.05 seed in
  List.map
    (fun latency ->
      (* A small cache keeps replacement active, so delete broadcasts race
         with remote fetches — the false-hit window of §4.2. *)
      let cfg =
        Config.make ~n_nodes:nodes ~cache_mode:Config.Cooperative
          ~broadcast_latency:(Some latency) ~cache_threshold:0.01
          ~cache_capacity:40 ~seed ()
      in
      (latency, Cluster_runner.run cfg ~trace ~n_streams:16 ()))
    latencies

let consistency_target =
  one_table "ablation-consistency" ~doc:"anomalies vs update delay"
    ~title:
      "Ablation A3. Consistency anomalies vs directory-update delay (8 \
       nodes, 50 ms CGIs, cache size 40)."
    Metrics.Table.
      [
        right "Update delay (s)" (fun (latency, _) -> f4 latency);
        right "False hits" (counter_cell Server.K.false_hit);
        right "FM concurrent" (counter_cell Server.K.false_miss_concurrent);
        right "FM duplicate" (counter_cell Server.K.false_miss_duplicate);
        right "Hits" hits_cell;
      ]
    (fun ~jobs:_ -> ablation_consistency ())

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

let ablation_routing ?(seed = default_seed) ?(nodes = 4) ?(cache_size = 2000)
    () =
  let trace = table5_trace seed in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  ( upper,
    List.concat_map
      (fun routing ->
        List.map
          (fun mode ->
            let cfg =
              Config.make ~n_nodes:nodes ~cache_mode:mode
                ~cache_capacity:cache_size ~seed ()
            in
            ( (routing, mode),
              Cluster_runner.run cfg ~trace ~n_streams:16 ~router:routing () ))
          [ Config.Standalone; Config.Cooperative ])
      Router.all_policies )

let routing_target =
  bounded_table "ablation-routing" ~doc:"routing policy x cache mode"
    ~title:
      "Ablation A5. Request routing x cache mode (4 nodes, Table-5 workload, \
       cache size 2000)."
    (fun upper ->
      Metrics.Table.
        [
          left "Routing" (fun ((routing, _), _) -> Router.policy_name routing);
          left "Cache mode" (fun ((_, mode), _) ->
              Config.cache_mode_to_string mode);
          right "Hits" hits_cell;
          right "% of UB" (of_upper upper);
          right "Mean response (s)" mean_cell;
        ])
    (fun () -> ablation_routing ())

(* ------------------------------------------------------------------ *)
(* A6 — caching threshold sweep *)

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
          ( (capacity, threshold),
            Cluster_runner.run cfg ~trace ~n_streams:16 () ))
        thresholds)
    capacities

let threshold_target =
  one_table "ablation-threshold" ~doc:"caching threshold x capacity"
    ~title:
      "Ablation A6. Caching threshold x cache capacity (ADL replay, 4 nodes, \
       cooperative)."
    Metrics.Table.
      [
        right "Capacity" (fun ((capacity, _), _) -> fmt_i capacity);
        right "Threshold (s)" (fun ((_, threshold), _) ->
            fmt_f ~decimals:1 threshold);
        right "Mean response (s)" mean_cell;
        right "Hits" hits_cell;
        right "Inserts" (counter_cell Server.K.inserts);
        right "Evictions" (fun (_, r) ->
            fmt_i r.Cluster_runner.store_stats.Cache.Stats.evictions);
      ]
    (fun ~jobs:_ -> ablation_threshold ())

(* ------------------------------------------------------------------ *)
(* A8 — injected faults *)

let ablation_faults ?(seed = default_seed) ?(drops = [ 0.0; 0.05; 0.2 ])
    ?(mtbfs = [ 0.; 60.; 15. ]) ?(nodes = 4) () =
  let trace = table5_trace seed in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  ( upper,
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
                ~seed ()
            in
            (* Route via the front-end so requests fail over around down
               nodes (Per_stream keeps the paper's pinning while healthy). *)
            ( (drop, mtbf),
              Cluster_runner.run cfg ~trace ~n_streams:16
                ~router:Router.Per_stream () ))
          mtbfs)
      drops )

let faults_target =
  bounded_table "ablation-faults" ~doc:"drop-rate x crash-frequency degradation"
    ~title:
      "Ablation A8. Injected faults: drop-rate x crash-frequency with 0.5 s \
       fetch timeout, 2 retries (4 nodes, Table-5 workload)."
    (fun upper ->
      Metrics.Table.
        [
          right "Drop" (fun ((drop, _), _) -> fmt_pct drop);
          right "MTBF (s)" (fun ((_, mtbf), _) -> swept ~zero:"-" mtbf);
          right "Hits" hits_cell;
          right "% of UB" (of_upper upper);
          right "Timeouts" (counter_cell Server.K.fetch_timeouts);
          right "Retries" (counter_cell Server.K.fetch_retries);
          right "Crashes" (counter_cell Server.K.crashes);
          right "503s" (counter_cell Server.K.rejected_down);
          right "Purges" (counter_cell Server.K.dir_suspect_purged);
          (* Messages the fault plan discarded. *)
          right "Msgs lost" (fun (_, r) -> fmt_i r.Cluster_runner.net_lost);
          right "Mean response (s)" mean_cell;
        ])
    (fun () -> ablation_faults ())

(* ------------------------------------------------------------------ *)
(* A9 — network partitions x anti-entropy repair *)

let ablation_partition ?(seed = default_seed)
    ?(durations = [ 0.; 10.; 20. ]) ?(periods = [ 0.; 2.; 10. ]) () =
  (* Short executions and a pinch of locality keep the two halves working
     the same hot keys, so a split produces divergence worth repairing. *)
  let trace = table5_trace ~demand:0.05 seed in
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
          ( (duration, period),
            Cluster_runner.run cfg ~trace ~n_streams:16
              ~router:Router.Per_stream () ))
        periods)
    durations

let partition_target =
  one_table "ablation-partition" ~doc:"partition duration x anti-entropy period"
    ~title:
      "Ablation A9. Network partition (halves of a 4-node cluster, cut at \
       t=1 s) x anti-entropy period (Table-5 workload)."
    Metrics.Table.
      [
        right "Partition (s)" (fun ((duration, _), _) ->
            swept ~zero:"-" duration);
        right "AE period (s)" (fun ((_, period), _) ->
            swept ~zero:"off" period);
        right "Hits" hits_cell;
        right "False hits" (counter_cell Server.K.false_hit);
        (* Duplicate executions of the same key: at insert time while
           divided, or discovered by the anti-entropy merge after the
           heal. *)
        right "Dup execs" (counter_cell Server.K.false_miss_duplicate);
        right "AE rounds" (counter_cell Server.K.anti_entropy_rounds);
        right "AE pulled" (counter_cell Server.K.anti_entropy_pulled);
        right "Healed" (counter_cell Server.K.partitions_healed);
        (* Protocol messages cut by the split. *)
        right "Msgs cut" (fun (_, r) ->
            fmt_i r.Cluster_runner.net_lost_partition);
        right "Mean response (s)" mean_cell;
      ]
    (fun ~jobs:_ -> ablation_partition ())

(* ------------------------------------------------------------------ *)
(* A10 — directory-update batching *)

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
          ( (nodes, interval),
            Cluster_runner.run cfg ~trace ~n_streams:(4 * nodes) () ))
        intervals)
    node_counts

let batching_target =
  one_table "ablation-batching" ~doc:"directory-update batching: flush x nodes"
    ~title:
      "Ablation A10. Directory-update batching: flush interval x cluster \
       size (all-insert 5 ms CGIs, batch_max 64, 4 streams/node)."
    Metrics.Table.
      [
        right "# nodes" (fun ((nodes, _), _) -> fmt_i nodes);
        right "Flush (s)" (fun ((_, interval), _) ->
            swept ~zero:"off" interval);
        (* Directory updates originated: inserts + deletes. *)
        right "Updates" (fun (_, r) ->
            fmt_i
              (count r Server.K.broadcast_insert
              + count r Server.K.broadcast_delete));
        (* Directory-update unicasts actually sent, and their wire bytes. *)
        right "Msgs" (counter_cell Server.K.info_msgs);
        right "KB" (fun (_, r) -> kb (count r Server.K.info_bytes));
        (* [Update.Batch] envelopes among the unicasts, and the updates they
           carried. *)
        right "Batches" (counter_cell Server.K.batches_sent);
        right "Batched upd" (counter_cell Server.K.batch_updates);
        (* Buffered updates overwritten by a newer same-key update before
           transmission. *)
        right "Coalesced" (counter_cell Server.K.batch_coalesced);
        right "Hits" hits_cell;
        right "Mean response (s)" mean_cell;
      ]
    (fun ~jobs:_ -> ablation_batching ())

(* ------------------------------------------------------------------ *)
(* Shared by A11-A13 *)

(* The hot-headed read-mostly coop mix: a quarter of the requests are
   unique inserts (metadata writes), the rest re-reference a 24-key Zipf
   head (metadata reads). [demand] is each CGI's run time. *)
let hot_headed_coop ~seed ~n_requests ~demand =
  Workload.Synthetic.coop ~seed ~n:n_requests
    ~n_unique:(Stdlib.max 1 (n_requests / 4))
    ~n_hot:24 ~zipf_s:1.1 ~demand ()

(* The A12 flash crowd, which A13 replays: 80 % of CGI traffic onto an
   8-key Zipf head for the middle of a 12 s scenario, decaying over 3 s. *)
let flash_crowd_scenario () =
  Workload.Scenario.make ~duration:12.
    ~flash:
      (Workload.Scenario.flash_crowd ~at:3. ~duration:3. ~decay:3.
         ~fraction:0.8 ~keys:8 ~zipf_s:1.0 ~demand:0.02 ())
    ()

(* [cfg] on the sharded plane with hotspot replication: a key forwarded
   to its home more than once a second, over a 2 s window, has its entry
   pushed to 3 ring successors. *)
let sharded_hotspot cfg =
  {
    cfg with
    Config.dir_mode = Config.Sharded;
    hotspot_threshold = 1.0;
    hotspot_window = 2.0;
    hotspot_replicas = 3;
  }

(* ------------------------------------------------------------------ *)
(* A11 — metadata plane: replicated vs batched vs sharded (+hotspot) *)

let ablation_dirmode ?jobs ?(seed = default_seed)
    ?(node_counts = [ 8; 64; 256; 512 ]) ?(n_requests = 3000) () =
  (* On the hot-headed mix, replicated pays O(n) messages per insert and
     keeps the full key population in every replica; sharded pays O(1)
     per insert plus a forwarded round trip per uncached remote lookup,
     and each node holds only its ring partition plus the bounded lookup
     cache. The hotspot variant promotes head keys to 3 ring successors.
     Thresholds: with a positive-lookup TTL of 5 s, a shard home sees
     each node at most every 5 s per hot key, so a promotion threshold of
     1/s needs ~5 live nodes re-referencing the key — hot keys promote at
     every swept cluster size, cold keys never do. *)
  let trace = hot_headed_coop ~seed ~n_requests ~demand:0.005 in
  let replicated =
    Config.make ~cache_mode:Config.Cooperative ~cache_threshold:0.001 ~seed ()
  in
  let sharded = { replicated with Config.dir_mode = Config.Sharded } in
  let variants =
    [
      ("replicated", replicated);
      ( "batched",
        {
          replicated with
          Config.batch_max = 8;
          batch_flush_interval = Some 0.005;
        } );
      ("sharded", sharded);
      ("sharded+hotspot", sharded_hotspot sharded);
    ]
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
    (fun (nodes, (label, cfg)) ->
      let cfg = { cfg with Config.n_nodes = nodes } in
      (* Streams scale with the cluster up to a cap, but never below one
         per node, so every node serves clients at every size. *)
      let n_streams = Stdlib.max nodes (Stdlib.min (4 * nodes) 256) in
      ((nodes, label), Cluster_runner.run cfg ~trace ~n_streams ()))
    points

(* Metadata wire bytes: directory-update unicasts plus forwarded-lookup
   requests and replies. *)
let dir_kb (_, r) =
  kb (count r Server.K.info_bytes + count r Server.K.dir_lookup_bytes)

let dirmode_target =
  one_table "ablation-dirmode"
    ~doc:"metadata plane: replicated vs batched vs sharded (+hotspot)"
    ~title:
      "Ablation A11. Metadata plane x cluster size (hot-headed coop mix, \
       24-key Zipf 1.1 head, 5 ms CGIs): replicated broadcast vs batched \
       broadcast vs consistent-hash sharding (+hotspot replication)."
    Metrics.Table.
      [
        right "# nodes" (fun ((nodes, _), _) -> fmt_i nodes);
        left "Plane" (fun ((_, variant), _) -> variant);
        (* Total metadata messages: directory-update unicasts plus
           forwarded-lookup requests and replies. *)
        right "Dir msgs" (fun (_, r) ->
            fmt_i
              (count r Server.K.info_msgs + count r Server.K.dir_lookup_msgs));
        right "Dir KB" dir_kb;
        (* Mean per-node metadata footprint at run end, in directory
           entries (full replica, or shard partition + lookup cache). *)
        right "Mem mean" (fun (_, r) ->
            let entries = r.Cluster_runner.dir_entries in
            Printf.sprintf "%.1f"
              (if Array.length entries = 0 then 0.
               else
                 float_of_int (Array.fold_left ( + ) 0 entries)
                 /. float_of_int (Array.length entries)));
        (* The most loaded node's footprint. *)
        right "Mem max" (fun (_, r) ->
            fmt_i (Array.fold_left Stdlib.max 0 r.Cluster_runner.dir_entries));
        right "Fwd" (counter_cell Server.K.shard_fwd_lookups);
        (* Lookup-cache hits, positive + negative. *)
        right "LC hits" (fun (_, r) ->
            fmt_i
              (count r Server.K.lcache_pos_hits
              + count r Server.K.lcache_neg_hits));
        right "Promoted" (counter_cell Server.K.hotspot_promotions);
        right "Hits" hits_cell;
        (* Mean cache-hit service time. *)
        right "Hit lat (ms)" (fun (_, r) ->
            Printf.sprintf "%.2f"
              (1000. *. Metrics.Sample.mean r.Cluster_runner.hit_latency));
        right "Mean response (s)" mean_cell;
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
  let trace = hot_headed_coop ~seed ~n_requests ~demand:0.02 in
  let scenario = flash_crowd_scenario () in
  let churn = Sim.Fault.churn ~rate:0.3 ~downtime:1.5 ~poisson:true () in
  let fault = Sim.Fault.make ~churn ~horizon:120. () in
  let replicated =
    Config.make ~n_nodes ~cache_mode:Config.Cooperative ~cache_threshold:0.001
      ~scenario:(Some scenario) ~fault:(Some fault) ~fetch_timeout:(Some 0.25)
      ~fetch_retries:1 ~seed ()
  in
  let variants =
    [
      ("replicated", replicated);
      ("sharded+hotspot", sharded_hotspot replicated);
    ]
  in
  List.concat
  @@ Sim.Sweep.map_list ?jobs
    (fun (variant, cfg) ->
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
  let trace = hot_headed_coop ~seed ~n_requests ~demand:0.02 in
  let base =
    Config.make ~n_nodes ~cache_mode:Config.Cooperative ~cache_threshold:0.001
      ~scenario:(Some (flash_crowd_scenario ())) ~fetch_timeout:(Some 0.25)
      ~fetch_retries:1 ~seed ()
  in
  let fixed ttl = { base with Config.default_ttl = Some ttl } in
  let adaptive =
    { (fixed 8.) with Config.freshness = Cache.Freshness.Adaptive }
  in
  let variants =
    [
      ("fixed-2", fixed 2.);
      ("fixed-8", fixed 8.);
      ("fixed-32", fixed 32.);
      ("adaptive", adaptive);
      ("adaptive+refresh", { adaptive with Config.refresh_budget = 4. });
    ]
  in
  let points =
    List.concat_map
      (fun dir_mode ->
        List.map (fun variant -> (dir_mode, variant)) variants)
      [ Config.Replicated; Config.Sharded ]
  in
  Sim.Sweep.map_list ?jobs
    (fun (dir_mode, (label, cfg)) ->
      let cfg = { cfg with Config.dir_mode } in
      ( (dir_mode, label),
        Cluster_runner.run cfg ~trace ~n_streams:(4 * n_nodes) () ))
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
        left "Plane" (fun ((dir_mode, _), _) ->
            Config.dir_mode_to_string dir_mode);
        left "Policy" (fun ((_, variant), _) -> variant);
        (* Mean content age at cache hits. *)
        right "Stale mean (s)" (fun (_, r) ->
            Printf.sprintf "%.3f"
              (Metrics.Histogram.mean r.Cluster_runner.staleness));
        right "Stale p99 (s)" (fun (_, r) ->
            Printf.sprintf "%.3f"
              (match
                 Metrics.Histogram.quantile_opt r.Cluster_runner.staleness 0.99
               with
              | Some v -> v
              | None -> 0.));
        right "Hit ratio" (fun (_, r) ->
            Printf.sprintf "%.1f%%" (100. *. r.Cluster_runner.hit_ratio));
        (* The recompute-cost axis. *)
        right "CGI execs" (counter_cell Server.K.cgi_execs);
        right "Refreshes" (counter_cell Server.K.refreshes);
        right "Saved (ms)" (counter_cell Server.K.refresh_saved_ms);
        (* Adaptive hits older than the fixed-8 anchor: what a fixed-8
           cache would have refused to serve. *)
        right "Stale>8s" (counter_cell Server.K.stale_served);
        (* The wire axis. *)
        right "Dir KB" dir_kb;
        right "Mean response (s)" mean_cell;
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
    faults_target;
    partition_target;
    batching_target;
    dirmode_target;
    scenario_target;
    freshness_target;
    breakdown_target;
  ]
