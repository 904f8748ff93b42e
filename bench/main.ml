(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation in the same row/column layout, plus Bechamel micro-benchmarks
   of the hot kernels.

   Usage:
     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- table1 figure4 ...
                                              run a subset
     dune exec bench/main.exe -- micro        Bechamel suite + wall-clock
                                              end-to-end run (also writes
                                              BENCH_perf.json)
     dune exec bench/main.exe -- --jobs 4 ablation-dirmode
                                              sweep-parallel ablations on 4
                                              domains (0 = all cores);
                                              output identical to --jobs 1
   Targets: table1 table2 figure3 figure4 table3 table4 table5 table6
            ablation-policy ablation-locking ablation-consistency
            ablation-protocol ablation-routing ablation-threshold
            ablation-loss ablation-faults ablation-partition
            ablation-batching breakdown micro *)

let seed = 42

(* When --csv DIR is given, every table is additionally written as
   DIR/<target>.csv (one file per table in emission order). *)
let csv_dir : string option ref = ref None
let current_target = ref ""
let csv_counter = ref 0

(* --jobs N: domain count for the sweep-parallel ablations (A11/A12/A13).
   Sweep results are merged in point order, so tables are byte-identical
   for any value; 0 means "ask the runtime". *)
let jobs = ref 1

let emit t =
  Metrics.Table.print t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr csv_counter;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%d.csv" !current_target !csv_counter)
      in
      let oc = open_out path in
      output_string oc (Metrics.Table.to_csv t);
      close_out oc

(* ------------------------------------------------------------------ *)
(* Paper tables and figures *)

let sec = Metrics.Table.fmt_f ~decimals:3

let bench_table1 () =
  let summary, rows = Swala.Experiments.table1 ~seed () in
  Printf.printf
    "Workload: %d requests, %d CGI (%.1f%%); total service %.0f s; mean \
     response %.2f s; mean file %.3f s; mean CGI %.2f s; CGI share of time \
     %.1f%%; longest %.1f s\n\n"
    summary.Workload.Analyzer.n_total summary.Workload.Analyzer.n_cgi
    (100. *. summary.Workload.Analyzer.cgi_fraction)
    summary.Workload.Analyzer.total_service
    summary.Workload.Analyzer.mean_response
    summary.Workload.Analyzer.mean_file_time
    summary.Workload.Analyzer.mean_cgi_time
    (100. *. summary.Workload.Analyzer.cgi_time_fraction)
    summary.Workload.Analyzer.longest;
  let t =
    Metrics.Table.create
      ~title:"Table 1. Potential time saving by caching CGI."
      ~columns:
        [
          ("Time threshold", Metrics.Table.Left);
          ("#long requests", Metrics.Table.Right);
          ("Total # repeats", Metrics.Table.Right);
          ("# uniq. repeats", Metrics.Table.Right);
          ("Time saved", Metrics.Table.Right);
          ("Saved %", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Workload.Analyzer.row) ->
      Metrics.Table.add_row t
        [
          Printf.sprintf "%.1f sec" r.Workload.Analyzer.threshold;
          Metrics.Table.fmt_i r.Workload.Analyzer.n_long;
          Metrics.Table.fmt_i r.Workload.Analyzer.total_repeats;
          Metrics.Table.fmt_i r.Workload.Analyzer.unique_repeats;
          Printf.sprintf "%.0f s" r.Workload.Analyzer.time_saved;
          Metrics.Table.fmt_pct r.Workload.Analyzer.saved_fraction;
        ])
    rows;
  emit t

let bench_table2 () =
  let rows = Swala.Experiments.table2 ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Table 2. File fetch average response time in seconds (WebStone mix)."
      ~columns:
        [
          ("# clients", Metrics.Table.Right);
          ("HTTPd", Metrics.Table.Right);
          ("Enterprise", Metrics.Table.Right);
          ("Swala", Metrics.Table.Right);
          ("HTTPd/Swala", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.table2_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.clients;
          sec r.Swala.Experiments.httpd;
          sec r.Swala.Experiments.enterprise;
          sec r.Swala.Experiments.swala;
          Printf.sprintf "%.1fx"
            (r.Swala.Experiments.httpd /. r.Swala.Experiments.swala);
        ])
    rows;
  emit t

let bench_figure3 () =
  let f = Swala.Experiments.figure3 ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Figure 3. Null-CGI request response time (24 clients, seconds)."
      ~columns:
        [ ("Configuration", Metrics.Table.Left); ("Response", Metrics.Table.Right) ]
  in
  List.iter
    (fun (name, v) -> Metrics.Table.add_row t [ name; sec v ])
    [
      ("Enterprise", f.Swala.Experiments.enterprise_f3);
      ("HTTPd", f.Swala.Experiments.httpd_f3);
      ("Swala no cache", f.Swala.Experiments.swala_no_cache);
      ("Swala remote cache", f.Swala.Experiments.swala_remote);
      ("Swala local cache", f.Swala.Experiments.swala_local);
    ];
  emit t;
  Printf.printf
    "Remote-fetch overhead over local fetch under load: %.3f s\n\n"
    (f.Swala.Experiments.swala_remote -. f.Swala.Experiments.swala_local)

let bench_figure4 () =
  let rows = Swala.Experiments.figure4 ~seed ~n_requests:12_000 () in
  let t =
    Metrics.Table.create
      ~title:
        "Figure 4. Multi-node mean response time (s), ADL-like replay, 16 \
         client threads."
      ~columns:
        [
          ("# servers", Metrics.Table.Right);
          ("No Cache", Metrics.Table.Right);
          ("Coop. Cache", Metrics.Table.Right);
          ("Speedup (NC)", Metrics.Table.Right);
          ("Improvement", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.figure4_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.nodes;
          Metrics.Table.fmt_f ~decimals:2 r.Swala.Experiments.no_cache;
          Metrics.Table.fmt_f ~decimals:2 r.Swala.Experiments.coop;
          Printf.sprintf "%.2fx" r.Swala.Experiments.speedup_no_cache;
          Metrics.Table.fmt_pct r.Swala.Experiments.improvement;
        ])
    rows;
  emit t

let bench_table3 () =
  let rows = Swala.Experiments.table3 ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Table 3. Response time overhead of insertion and information \
         broadcast (180 unique 1 s requests)."
      ~columns:
        [
          ("# nodes", Metrics.Table.Right);
          ("No Cache (s)", Metrics.Table.Right);
          ("Coop. Cache (s)", Metrics.Table.Right);
          ("Increase (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.table3_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.nodes_t3;
          sec r.Swala.Experiments.no_cache_t3;
          sec r.Swala.Experiments.coop_t3;
          sec r.Swala.Experiments.increase_t3;
        ])
    rows;
  emit t

let bench_table4 () =
  let rows = Swala.Experiments.table4 ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Table 4. Response time overhead of replicated directory maintenance \
         (180 uncacheable 1 s requests)."
      ~columns:
        [
          ("UPS", Metrics.Table.Right);
          ("Avg. response (s)", Metrics.Table.Right);
          ("Increase (s)", Metrics.Table.Right);
          ("Updates applied", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.table4_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.ups;
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.mean_response_t4;
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.increase_t4;
          Metrics.Table.fmt_i r.Swala.Experiments.updates_applied;
        ])
    rows;
  emit t

let hit_table ~title ~cache_size () =
  let rows = Swala.Experiments.hit_ratio_table ~seed ~cache_size () in
  let t =
    Metrics.Table.create ~title
      ~columns:
        [
          ("# nodes", Metrics.Table.Right);
          ("Stand. hits", Metrics.Table.Right);
          ("Coop. hits", Metrics.Table.Right);
          ("Stand. %UB", Metrics.Table.Right);
          ("Coop. %UB", Metrics.Table.Right);
          ("False misses", Metrics.Table.Right);
        ]
  in
  let upper = ref 0 in
  List.iter
    (fun (r : Swala.Experiments.hit_row) ->
      upper := r.Swala.Experiments.upper_bound;
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.nodes_h;
          Metrics.Table.fmt_i r.Swala.Experiments.standalone_hits;
          Metrics.Table.fmt_i r.Swala.Experiments.coop_hits;
          Metrics.Table.fmt_pct r.Swala.Experiments.standalone_pct;
          Metrics.Table.fmt_pct r.Swala.Experiments.coop_pct;
          Metrics.Table.fmt_i r.Swala.Experiments.coop_false_misses;
        ])
    rows;
  emit t;
  Printf.printf "Upper bound on hits: %d (1600 requests, 1122 unique)\n\n" !upper

let bench_table5 () =
  hit_table
    ~title:
      "Table 5. Cache hit ratios, stand-alone and cooperative caching, cache \
       size 2000."
    ~cache_size:2000 ()

let bench_table6 () =
  hit_table
    ~title:
      "Table 6. Cache hit ratios, stand-alone and cooperative caching, cache \
       size 20."
    ~cache_size:20 ()

let bench_ablation_policy () =
  let rows = Swala.Experiments.ablation_policy ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A1. Replacement policy under overflow (cache size 20, 4 \
         nodes, cooperative)."
      ~columns:
        [
          ("Policy", Metrics.Table.Left);
          ("Hits", Metrics.Table.Right);
          ("% of UB", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.policy_row) ->
      Metrics.Table.add_row t
        [
          Cache.Policy.to_string r.Swala.Experiments.policy;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_p;
          Metrics.Table.fmt_pct
            (float_of_int r.Swala.Experiments.hits_p
            /. float_of_int (Stdlib.max 1 r.Swala.Experiments.upper_p));
          sec r.Swala.Experiments.mean_response_p;
        ])
    rows;
  emit t

let bench_ablation_locking () =
  let rows = Swala.Experiments.ablation_locking ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A2. Directory locking granularity (4 nodes, cooperative)."
      ~columns:
        [
          ("Granularity", Metrics.Table.Left);
          ("Mean response (s)", Metrics.Table.Right);
          ("Read locks", Metrics.Table.Right);
          ("Write locks", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.locking_row) ->
      Metrics.Table.add_row t
        [
          Swala.Experiments.granularity_name r.Swala.Experiments.granularity;
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.mean_response_l;
          Metrics.Table.fmt_i r.Swala.Experiments.rd_locks;
          Metrics.Table.fmt_i r.Swala.Experiments.wr_locks;
        ])
    rows;
  emit t

let bench_ablation_consistency () =
  let rows = Swala.Experiments.ablation_consistency ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A3. Consistency anomalies vs directory-update delay (8 \
         nodes, 50 ms CGIs, cache size 40)."
      ~columns:
        [
          ("Update delay (s)", Metrics.Table.Right);
          ("False hits", Metrics.Table.Right);
          ("FM concurrent", Metrics.Table.Right);
          ("FM duplicate", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.consistency_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.latency;
          Metrics.Table.fmt_i r.Swala.Experiments.false_hits;
          Metrics.Table.fmt_i r.Swala.Experiments.false_miss_concurrent_c;
          Metrics.Table.fmt_i r.Swala.Experiments.false_miss_duplicate_c;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_c;
        ])
    rows;
  emit t

let bench_ablation_protocol () =
  let rows = Swala.Experiments.ablation_protocol ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A4. Weak vs strong directory consistency (8 nodes, \
         all-miss 0.2 s CGIs, 16 streams)."
      ~columns:
        [
          ("One-way latency (s)", Metrics.Table.Right);
          ("Weak (s)", Metrics.Table.Right);
          ("Strong (s)", Metrics.Table.Right);
          ("Penalty (s)", Metrics.Table.Right);
          ("Penalty %", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.protocol_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.latency_pr;
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.weak;
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.strong;
          Metrics.Table.fmt_f ~decimals:4 r.Swala.Experiments.penalty;
          Metrics.Table.fmt_pct (r.Swala.Experiments.penalty /. r.Swala.Experiments.weak);
        ])
    rows;
  emit t

let bench_ablation_routing () =
  let rows = Swala.Experiments.ablation_routing ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A5. Request routing x cache mode (4 nodes, Table-5 \
         workload, cache size 2000)."
      ~columns:
        [
          ("Routing", Metrics.Table.Left);
          ("Cache mode", Metrics.Table.Left);
          ("Hits", Metrics.Table.Right);
          ("% of UB", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.routing_row) ->
      Metrics.Table.add_row t
        [
          Swala.Router.policy_name r.Swala.Experiments.routing;
          Swala.Config.cache_mode_to_string r.Swala.Experiments.mode_r;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_r;
          Metrics.Table.fmt_pct
            (float_of_int r.Swala.Experiments.hits_r
            /. float_of_int (Stdlib.max 1 r.Swala.Experiments.upper_r));
          sec r.Swala.Experiments.mean_response_r;
        ])
    rows;
  emit t

let bench_ablation_threshold () =
  let rows = Swala.Experiments.ablation_threshold ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A6. Caching threshold x cache capacity (ADL replay, 4 \
         nodes, cooperative)."
      ~columns:
        [
          ("Capacity", Metrics.Table.Right);
          ("Threshold (s)", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("Inserts", Metrics.Table.Right);
          ("Evictions", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.threshold_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.capacity_t;
          Metrics.Table.fmt_f ~decimals:1 r.Swala.Experiments.threshold_t;
          sec r.Swala.Experiments.mean_response_thr;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_thr;
          Metrics.Table.fmt_i r.Swala.Experiments.inserts_thr;
          Metrics.Table.fmt_i r.Swala.Experiments.evictions_thr;
        ])
    rows;
  emit t

let bench_ablation_loss () =
  let rows = Swala.Experiments.ablation_loss ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A7. Protocol-message loss with 0.5 s fetch timeout (4 \
         nodes, Table-5 workload)."
      ~columns:
        [
          ("Loss", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("% of UB", Metrics.Table.Right);
          ("Fetch timeouts", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.loss_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_pct r.Swala.Experiments.loss;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_l;
          Metrics.Table.fmt_pct
            (float_of_int r.Swala.Experiments.hits_l
            /. float_of_int (Stdlib.max 1 r.Swala.Experiments.upper_l));
          Metrics.Table.fmt_i r.Swala.Experiments.fetch_timeouts_l;
          sec r.Swala.Experiments.mean_response_loss;
        ])
    rows;
  emit t

let bench_ablation_faults () =
  let rows = Swala.Experiments.ablation_faults ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A8. Injected faults: drop-rate x crash-frequency with 0.5 s \
         fetch timeout, 2 retries (4 nodes, Table-5 workload)."
      ~columns:
        [
          ("Drop", Metrics.Table.Right);
          ("MTBF (s)", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("% of UB", Metrics.Table.Right);
          ("Timeouts", Metrics.Table.Right);
          ("Retries", Metrics.Table.Right);
          ("Crashes", Metrics.Table.Right);
          ("503s", Metrics.Table.Right);
          ("Purges", Metrics.Table.Right);
          ("Msgs lost", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.fault_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_pct r.Swala.Experiments.drop_f;
          (if r.Swala.Experiments.mtbf_f = 0. then "-"
           else Printf.sprintf "%g" r.Swala.Experiments.mtbf_f);
          Metrics.Table.fmt_i r.Swala.Experiments.hits_f;
          Metrics.Table.fmt_pct
            (float_of_int r.Swala.Experiments.hits_f
            /. float_of_int (Stdlib.max 1 r.Swala.Experiments.upper_f));
          Metrics.Table.fmt_i r.Swala.Experiments.timeouts_f;
          Metrics.Table.fmt_i r.Swala.Experiments.retries_f;
          Metrics.Table.fmt_i r.Swala.Experiments.crashes_f;
          Metrics.Table.fmt_i r.Swala.Experiments.rejected_f;
          Metrics.Table.fmt_i r.Swala.Experiments.purged_f;
          Metrics.Table.fmt_i r.Swala.Experiments.net_lost_f;
          sec r.Swala.Experiments.mean_response_f;
        ])
    rows;
  emit t

let bench_ablation_partition () =
  let rows = Swala.Experiments.ablation_partition ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A9. Network partition (halves of a 4-node cluster, cut at \
         t=1 s) x anti-entropy period (Table-5 workload)."
      ~columns:
        [
          ("Partition (s)", Metrics.Table.Right);
          ("AE period (s)", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("False hits", Metrics.Table.Right);
          ("Dup execs", Metrics.Table.Right);
          ("AE rounds", Metrics.Table.Right);
          ("AE pulled", Metrics.Table.Right);
          ("Healed", Metrics.Table.Right);
          ("Msgs cut", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.partition_row) ->
      Metrics.Table.add_row t
        [
          (if r.Swala.Experiments.duration_pt = 0. then "-"
           else Printf.sprintf "%g" r.Swala.Experiments.duration_pt);
          (if r.Swala.Experiments.period_pt = 0. then "off"
           else Printf.sprintf "%g" r.Swala.Experiments.period_pt);
          Metrics.Table.fmt_i r.Swala.Experiments.hits_pt;
          Metrics.Table.fmt_i r.Swala.Experiments.false_hits_pt;
          Metrics.Table.fmt_i r.Swala.Experiments.false_miss_dup_pt;
          Metrics.Table.fmt_i r.Swala.Experiments.ae_rounds_pt;
          Metrics.Table.fmt_i r.Swala.Experiments.ae_pulled_pt;
          Metrics.Table.fmt_i r.Swala.Experiments.healed_pt;
          Metrics.Table.fmt_i r.Swala.Experiments.drops_partition_pt;
          sec r.Swala.Experiments.mean_response_pt;
        ])
    rows;
  emit t

let bench_ablation_batching () =
  let rows = Swala.Experiments.ablation_batching ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A10. Directory-update batching: flush interval x cluster \
         size (all-insert 5 ms CGIs, batch_max 64, 4 streams/node)."
      ~columns:
        [
          ("# nodes", Metrics.Table.Right);
          ("Flush (s)", Metrics.Table.Right);
          ("Updates", Metrics.Table.Right);
          ("Msgs", Metrics.Table.Right);
          ("KB", Metrics.Table.Right);
          ("Batches", Metrics.Table.Right);
          ("Batched upd", Metrics.Table.Right);
          ("Coalesced", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.batching_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.nodes_bt;
          (if r.Swala.Experiments.interval_bt = 0. then "off"
           else Printf.sprintf "%g" r.Swala.Experiments.interval_bt);
          Metrics.Table.fmt_i r.Swala.Experiments.updates_bt;
          Metrics.Table.fmt_i r.Swala.Experiments.msgs_bt;
          Printf.sprintf "%.1f"
            (float_of_int r.Swala.Experiments.bytes_bt /. 1024.);
          Metrics.Table.fmt_i r.Swala.Experiments.batches_bt;
          Metrics.Table.fmt_i r.Swala.Experiments.batched_updates_bt;
          Metrics.Table.fmt_i r.Swala.Experiments.coalesced_bt;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_bt;
          sec r.Swala.Experiments.mean_response_bt;
        ])
    rows;
  emit t

let bench_ablation_dirmode () =
  let rows = Swala.Experiments.ablation_dirmode ~jobs:!jobs ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A11. Metadata plane x cluster size (hot-headed coop mix, \
         24-key Zipf 1.1 head, 5 ms CGIs): replicated broadcast vs batched \
         broadcast vs consistent-hash sharding (+hotspot replication)."
      ~columns:
        [
          ("# nodes", Metrics.Table.Right);
          ("Plane", Metrics.Table.Left);
          ("Dir msgs", Metrics.Table.Right);
          ("Dir KB", Metrics.Table.Right);
          ("Mem mean", Metrics.Table.Right);
          ("Mem max", Metrics.Table.Right);
          ("Fwd", Metrics.Table.Right);
          ("LC hits", Metrics.Table.Right);
          ("Promoted", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("Hit lat (ms)", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.dirmode_row) ->
      Metrics.Table.add_row t
        [
          Metrics.Table.fmt_i r.Swala.Experiments.nodes_dm;
          r.Swala.Experiments.variant_dm;
          Metrics.Table.fmt_i r.Swala.Experiments.dir_msgs_dm;
          Printf.sprintf "%.1f"
            (float_of_int r.Swala.Experiments.dir_bytes_dm /. 1024.);
          Printf.sprintf "%.1f" r.Swala.Experiments.mem_mean_dm;
          Metrics.Table.fmt_i r.Swala.Experiments.mem_max_dm;
          Metrics.Table.fmt_i r.Swala.Experiments.fwd_dm;
          Metrics.Table.fmt_i r.Swala.Experiments.lcache_hits_dm;
          Metrics.Table.fmt_i r.Swala.Experiments.promotions_dm;
          Metrics.Table.fmt_i r.Swala.Experiments.hits_dm;
          Printf.sprintf "%.2f" (1000. *. r.Swala.Experiments.hit_latency_dm);
          sec r.Swala.Experiments.mean_response_dm;
        ])
    rows;
  emit t

let bench_ablation_scenario () =
  let rows = Swala.Experiments.ablation_scenario ~jobs:!jobs ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A12. Time-varying scenario (flash crowd onto an 8-key \
         head for the middle of the run + rolling churn, one leave per \
         ~3 s): replicated vs sharded+hotspot metadata plane, per phase."
      ~columns:
        [
          ("Plane", Metrics.Table.Left);
          ("Phase", Metrics.Table.Left);
          ("N", Metrics.Table.Right);
          ("Mean (s)", Metrics.Table.Right);
          ("p50 (s)", Metrics.Table.Right);
          ("p99 (s)", Metrics.Table.Right);
          ("Hits", Metrics.Table.Right);
          ("Hit ratio", Metrics.Table.Right);
          ("Dir msgs", Metrics.Table.Right);
          ("Crashes", Metrics.Table.Right);
          ("Redirects", Metrics.Table.Right);
          ("Lost", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.scenario_row) ->
      let all = r.Swala.Experiments.phase_sc = "all" in
      Metrics.Table.add_row t
        [
          r.Swala.Experiments.variant_sc;
          r.Swala.Experiments.phase_sc;
          Metrics.Table.fmt_i r.Swala.Experiments.n_sc;
          sec r.Swala.Experiments.mean_sc;
          sec r.Swala.Experiments.p50_sc;
          sec r.Swala.Experiments.p99_sc;
          (if all then Metrics.Table.fmt_i r.Swala.Experiments.hits_sc else "");
          (if all then
             Printf.sprintf "%.1f%%"
               (100. *. r.Swala.Experiments.hit_ratio_sc)
           else "");
          (if all then Metrics.Table.fmt_i r.Swala.Experiments.dir_msgs_sc
           else "");
          (if all then Metrics.Table.fmt_i r.Swala.Experiments.crashes_sc
           else "");
          (if all then Metrics.Table.fmt_i r.Swala.Experiments.redirects_sc
           else "");
          (if all then Metrics.Table.fmt_i r.Swala.Experiments.net_lost_sc
           else "");
        ])
    rows;
  emit t

let bench_ablation_freshness () =
  let rows = Swala.Experiments.ablation_freshness ~jobs:!jobs ~seed () in
  let t =
    Metrics.Table.create
      ~title:
        "Ablation A13. Freshness policy x metadata plane under the A12 \
         flash crowd (no churn): fixed whole-cache TTLs (2/8/32 s) vs the \
         per-key adaptive controller vs adaptive + proactive refresh (4 \
         re-execs/s/node)."
      ~columns:
        [
          ("Plane", Metrics.Table.Left);
          ("Policy", Metrics.Table.Left);
          ("Stale mean (s)", Metrics.Table.Right);
          ("Stale p99 (s)", Metrics.Table.Right);
          ("Hit ratio", Metrics.Table.Right);
          ("CGI execs", Metrics.Table.Right);
          ("Refreshes", Metrics.Table.Right);
          ("Saved (ms)", Metrics.Table.Right);
          ("Stale>8s", Metrics.Table.Right);
          ("Dir KB", Metrics.Table.Right);
          ("Mean response (s)", Metrics.Table.Right);
        ]
  in
  List.iter
    (fun (r : Swala.Experiments.freshness_row) ->
      Metrics.Table.add_row t
        [
          r.Swala.Experiments.dirmode_fr;
          r.Swala.Experiments.variant_fr;
          Printf.sprintf "%.3f" r.Swala.Experiments.stale_mean_fr;
          Printf.sprintf "%.3f" r.Swala.Experiments.stale_p99_fr;
          Printf.sprintf "%.1f%%" (100. *. r.Swala.Experiments.hit_ratio_fr);
          Metrics.Table.fmt_i r.Swala.Experiments.cgi_execs_fr;
          Metrics.Table.fmt_i r.Swala.Experiments.refreshes_fr;
          Metrics.Table.fmt_i r.Swala.Experiments.refresh_saved_ms_fr;
          Metrics.Table.fmt_i r.Swala.Experiments.stale_served_fr;
          Printf.sprintf "%.1f"
            (float_of_int r.Swala.Experiments.dir_bytes_fr /. 1024.);
          sec r.Swala.Experiments.mean_response_fr;
        ])
    rows;
  emit t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot kernels *)

let micro_tests () =
  let open Bechamel in
  let rng = Sim.Rng.create 7 in
  let zipf = Sim.Dist.Zipf.make ~n:10_000 ~s:0.9 in
  let store =
    Cache.Store.create ~capacity:2000 ~policy:Cache.Policy.Lru
      ~clock:(fun () -> 0.)
      ()
  in
  let fill_meta i =
    Cache.Meta.make
      ~key:(Printf.sprintf "GET /cgi-bin/q?i=%d" i)
      ~owner:0 ~size:4096 ~exec_time:1.0 ~created:0. ~expires:None
  in
  for i = 0 to 1999 do
    ignore (Cache.Store.insert store (fill_meta i) "body")
  done;
  let ctr = ref 0 in
  let raw_request = Http.Request.to_wire (Http.Request.get "/cgi-bin/query?q=maps&xd=1.5") in
  let null_engine_step () =
    let eng = Sim.Engine.create () in
    Sim.Engine.spawn eng (fun () -> Sim.Engine.delay 1.0);
    Sim.Engine.run eng
  in
  [
    Test.make ~name:"rng-float" (Staged.stage (fun () -> Sim.Rng.float rng));
    Test.make ~name:"zipf-draw"
      (Staged.stage (fun () -> Sim.Dist.Zipf.draw zipf rng));
    Test.make ~name:"http-parse-request"
      (Staged.stage (fun () -> Http.Request.parse raw_request));
    Test.make ~name:"cache-store-lookup-hit"
      (Staged.stage (fun () ->
           incr ctr;
           Cache.Store.lookup store
             (Printf.sprintf "GET /cgi-bin/q?i=%d" (!ctr mod 2000))));
    Test.make ~name:"cache-store-insert-evict"
      (Staged.stage (fun () ->
           incr ctr;
           Cache.Store.insert store (fill_meta (2000 + !ctr)) "body"));
    Test.make ~name:"engine-spawn-delay-run"
      (Staged.stage null_engine_step);
    Test.make ~name:"trace-gen-coop-100"
      (Staged.stage (fun () ->
           incr ctr;
           Workload.Synthetic.coop ~seed:!ctr ~n:100 ~n_unique:70 ~n_hot:10 ()));
  ]

(* Wall-clock end-to-end benchmark: how fast does the simulator itself
   run on the host? Times a cooperative 4-node replay and records
   requests/sec and events/sec of {e wall} time in BENCH_perf.json, so
   future optimisation PRs have a perf trajectory to compare against. *)
let run_perf () =
  let n_requests = 2_000 in
  let out_bytes =
    match Sys.getenv_opt "SWALA_BENCH_OUT_BYTES" with
    | Some v -> int_of_string v
    | None -> 4096
  in
  let trace =
    Workload.Synthetic.coop ~seed ~n:n_requests ~n_unique:1400 ~locality:0.08
      ~out_bytes ()
  in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative ~seed ()
  in
  let go () = Swala.Cluster_runner.run cfg ~trace ~n_streams:16 () in
  (* One throwaway run warms the minor heap and code paths. *)
  ignore (go () : Swala.Cluster_runner.result);
  (* The run is deterministic, so wall-time spread across repeats is pure
     host noise; report the fastest of five to keep the committed
     baseline comparable across noisy machines (CI runners included). *)
  let best_wall = ref infinity and best_r = ref None and minor = ref 0. in
  (* Words allocated straight into the major heap (major minus promoted):
     blocks too large for the minor heap, such as rendered bodies. *)
  let direct_major = ref 0. in
  for _ = 1 to 5 do
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = go () in
    let wall = Unix.gettimeofday () -. t0 in
    if wall < !best_wall then begin
      let s1 = Gc.quick_stat () in
      best_wall := wall;
      best_r := Some r;
      minor := s1.Gc.minor_words -. s0.Gc.minor_words;
      direct_major :=
        s1.Gc.major_words -. s0.Gc.major_words
        -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
    end
  done;
  let r = Option.get !best_r in
  let wall = !best_wall in
  let events = r.Swala.Cluster_runner.n_events in
  let rps = float_of_int n_requests /. wall in
  let eps = float_of_int events /. wall in
  let words_per_event = !minor /. float_of_int events in
  let major_per_request = !direct_major /. float_of_int n_requests in
  Printf.printf
    "End-to-end (4 nodes, %d requests, %d sim events): %.3f s wall -> %.0f \
     requests/s, %.0f events/s, %.1f minor words/event, %.1f direct major \
     words/request\n"
    n_requests events wall rps eps words_per_event major_per_request;
  let module J = Metrics.Json in
  (* Simulated response-time quantiles ride along (in ms) so a perf PR that
     accidentally changes behaviour — not just speed — shows up here too. *)
  let ms q =
    J.float_opt
      (Option.map
         (fun v -> v *. 1000.)
         (Metrics.Sample.quantile_opt r.Swala.Cluster_runner.response q))
  in
  let oc = open_out "BENCH_perf.json" in
  J.write oc
    (J.Obj
       [
         ("benchmark", J.Str "swala-e2e-coop-4node");
         ("nodes", J.Int 4);
         ("requests", J.Int n_requests);
         ("sim_events", J.Int events);
         ("wall_seconds", J.Float wall);
         ("requests_per_sec_wall", J.Float rps);
         ("events_per_sec_wall", J.Float eps);
         ("gc_minor_words_per_event", J.Float words_per_event);
         ("gc_major_words_per_request", J.Float major_per_request);
         ("p50_ms", ms 0.5);
         ("p95_ms", ms 0.95);
         ("p99_ms", ms 0.99);
         ("hit_ratio", J.Float r.Swala.Cluster_runner.hit_ratio);
         ( "max_ms",
           J.float_opt
             (Option.map
                (fun v -> v *. 1000.)
                (Metrics.Sample.max_opt r.Swala.Cluster_runner.response)) );
       ]);
  output_char oc '\n';
  close_out oc;
  let oc = open_out "BENCH_metrics.json" in
  output_string oc (Swala.Cluster_runner.result_to_json r);
  output_char oc '\n';
  close_out oc;
  Printf.printf "Wrote BENCH_perf.json and BENCH_metrics.json\n\n"

(* Traced replay: where does a request's time go, and what are the
   contention profiles? Runs the same cooperative 4-node coop-mix replay
   as the perf target, with tracing on. *)
let bench_breakdown () =
  let n_requests = 2_000 in
  let trace =
    Workload.Synthetic.coop ~seed ~n:n_requests ~n_unique:1400 ~locality:0.08 ()
  in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
      ~trace:true ~seed ()
  in
  let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:16 () in
  (match r.Swala.Cluster_runner.tracer with
  | None -> ()
  | Some tr -> emit (Swala.Trace_report.breakdown_table tr ~root:"request"));
  emit
    (Swala.Trace_report.histogram_table r.Swala.Cluster_runner.wait_histograms)

let run_micro () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let tests = Test.make_grouped ~name:"kernels" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Metrics.Table.create ~title:"Micro-benchmarks (Bechamel, OLS estimate)"
      ~columns:
        [ ("kernel", Metrics.Table.Left); ("ns/run", Metrics.Table.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | Some [] | None -> "n/a"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Metrics.Table.add_row t [ name; est ])
    (List.sort compare !rows);
  emit t;
  run_perf ()

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("table1", bench_table1);
    ("table2", bench_table2);
    ("figure3", bench_figure3);
    ("figure4", bench_figure4);
    ("table3", bench_table3);
    ("table4", bench_table4);
    ("table5", bench_table5);
    ("table6", bench_table6);
    ("ablation-policy", bench_ablation_policy);
    ("ablation-locking", bench_ablation_locking);
    ("ablation-consistency", bench_ablation_consistency);
    ("ablation-protocol", bench_ablation_protocol);
    ("ablation-routing", bench_ablation_routing);
    ("ablation-threshold", bench_ablation_threshold);
    ("ablation-loss", bench_ablation_loss);
    ("ablation-faults", bench_ablation_faults);
    ("ablation-partition", bench_ablation_partition);
    ("ablation-batching", bench_ablation_batching);
    ("ablation-dirmode", bench_ablation_dirmode);
    ("ablation-scenario", bench_ablation_scenario);
    ("ablation-freshness", bench_ablation_freshness);
    ("breakdown", bench_breakdown);
    ("micro", run_micro);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let rec parse_flags = function
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "--csv: %s is not a directory\n" dir;
          exit 2
        end;
        csv_dir := Some dir;
        parse_flags rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 0 ->
            jobs := (if j = 0 then Sim.Sweep.default_jobs () else j)
        | _ ->
            Printf.eprintf "--jobs: expected a non-negative integer, got %S\n" n;
            exit 2);
        parse_flags rest
    | other -> other
  in
  let args = parse_flags args in
  let requested =
    match args with [] -> List.map fst all_targets | some -> some
  in
  print_endline
    "Swala reproduction benchmarks (HPDC 1998). Absolute times are from the \
     simulated substrate;\ncompare shapes with the paper as recorded in \
     EXPERIMENTS.md.\n";
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f ->
          Printf.printf "=== %s ===\n%!" name;
          current_target := name;
          csv_counter := 0;
          let t0 = Sys.time () in
          f ();
          Printf.printf "(%s regenerated in %.1f s of host CPU)\n\n%!" name
            (Sys.time () -. t0)
      | None ->
          Printf.eprintf
            "unknown target %S; available: %s\n" name
            (String.concat ", " (List.map fst all_targets));
          exit 2)
    requested
