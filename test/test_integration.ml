(* Integration tests: full cluster runs via Cluster_runner and shape checks
   on the experiment drivers (small-scale versions of the paper's tables). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Cluster_runner *)

let small_trace = lazy (Workload.Synthetic.coop ~seed:5 ~n:200 ~n_unique:120 ~n_hot:20 ())

let test_runner_counts_all_requests () =
  let trace = Lazy.force small_trace in
  let cfg = Swala.Config.make () in
  let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:4 () in
  check_int "sample count" 200 (Metrics.Sample.count r.Swala.Cluster_runner.response);
  check_int "server saw all" 200
    (Metrics.Counter.get r.Swala.Cluster_runner.counters Swala.Server.K.requests);
  check_bool "positive duration" true (r.Swala.Cluster_runner.duration > 0.)

let test_runner_hit_accounting () =
  let trace = Lazy.force small_trace in
  let cfg = Swala.Config.make () in
  let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:4 () in
  let upper = Workload.Analyzer.upper_bound_hits trace in
  check_bool "hits bounded by upper" true (r.Swala.Cluster_runner.hits <= upper);
  check_bool "most repeats hit" true
    (float_of_int r.Swala.Cluster_runner.hits > 0.8 *. float_of_int upper);
  (* hits + execs = total CGI requests *)
  let execs =
    Metrics.Counter.get r.Swala.Cluster_runner.counters Swala.Server.K.cgi_execs
  in
  check_int "conservation" 200 (r.Swala.Cluster_runner.hits + execs)

let test_runner_deterministic () =
  let trace = Lazy.force small_trace in
  let cfg = Swala.Config.make ~n_nodes:2 () in
  let r1 = Swala.Cluster_runner.run cfg ~trace ~n_streams:4 () in
  let r2 = Swala.Cluster_runner.run cfg ~trace ~n_streams:4 () in
  Alcotest.(check (float 0.)) "bit-identical mean"
    (Swala.Cluster_runner.mean_response r1)
    (Swala.Cluster_runner.mean_response r2);
  check_int "same hits" r1.Swala.Cluster_runner.hits r2.Swala.Cluster_runner.hits

let test_runner_coop_beats_standalone () =
  let trace = Lazy.force small_trace in
  let coop =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative ())
      ~trace ~n_streams:8 ()
  in
  let standalone =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Standalone ())
      ~trace ~n_streams:8 ()
  in
  check_bool "coop >= standalone hits" true
    (coop.Swala.Cluster_runner.hits >= standalone.Swala.Cluster_runner.hits)

let test_runner_caching_beats_no_cache () =
  let trace = Lazy.force small_trace in
  let cached =
    Swala.Cluster_runner.run (Swala.Config.make ()) ~trace ~n_streams:8 ()
  in
  let plain =
    Swala.Cluster_runner.run
      (Swala.Config.make ~cache_mode:Swala.Config.Disabled ())
      ~trace ~n_streams:8 ()
  in
  check_bool "caching reduces mean response" true
    (Swala.Cluster_runner.mean_response cached
    < Swala.Cluster_runner.mean_response plain)

let test_runner_utilisation_sane () =
  let trace = Lazy.force small_trace in
  let r =
    Swala.Cluster_runner.run (Swala.Config.make ~n_nodes:2 ()) ~trace
      ~n_streams:4 ()
  in
  Array.iter
    (fun u -> check_bool "0 <= u <= 1" true (u >= 0. && u <= 1.0 +. 1e-9))
    r.Swala.Cluster_runner.utilisation

let test_runner_file_and_cgi_split () =
  let trace = Workload.Synthetic.adl_scaled ~seed:8 ~n:300 in
  let r = Swala.Cluster_runner.run (Swala.Config.make ()) ~trace ~n_streams:4 () in
  check_int "split covers everything" 300
    (Metrics.Sample.count r.Swala.Cluster_runner.cgi_response
    + Metrics.Sample.count r.Swala.Cluster_runner.file_response)

let test_runner_warmup_runs_first () =
  let trace = Workload.Synthetic.coop ~seed:5 ~n:20 ~n_unique:1 ~n_hot:1 () in
  let item = List.hd trace in
  let req = Workload.Trace.to_request item in
  let r =
    Swala.Cluster_runner.run (Swala.Config.make ()) ~trace ~n_streams:2
      ~warmup:(fun cluster ->
        Swala.Server.preload cluster ~node:0 req ~exec_time:1.0)
      ()
  in
  (* Every request hits the warmed entry: no executions at all. *)
  check_int "no execs" 0
    (Metrics.Counter.get r.Swala.Cluster_runner.counters Swala.Server.K.cgi_execs);
  check_int "all hits" 20 r.Swala.Cluster_runner.hits

let test_runner_assign_override () =
  let trace = Lazy.force small_trace in
  let cfg = Swala.Config.make ~n_nodes:2 () in
  let r =
    Swala.Cluster_runner.run cfg ~trace ~n_streams:4 ~assign:(fun _ -> 1) ()
  in
  check_int "node 0 idle" 0
    (Metrics.Counter.get
       r.Swala.Cluster_runner.per_node_counters.(0)
       Swala.Server.K.requests);
  check_int "node 1 got all" 200
    (Metrics.Counter.get
       r.Swala.Cluster_runner.per_node_counters.(1)
       Swala.Server.K.requests)

(* ------------------------------------------------------------------ *)
(* Experiment shapes (small scale) *)

let test_exp_table1_shape () =
  let params =
    { Workload.Synthetic.default_adl with n_requests = 15_000; n_hot = 60 }
  in
  let summary, rows = Swala.Experiments.table1 ~params () in
  check_bool "~41% cgi" true
    (Float.abs (summary.Workload.Analyzer.cgi_fraction -. 0.413) < 0.03);
  (match rows with
  | r1 :: _ ->
      (* Substantial saving available at the lowest threshold. *)
      check_bool "saving > 10%" true (r1.Workload.Analyzer.saved_fraction > 0.10);
      check_bool "entries modest" true (r1.Workload.Analyzer.unique_repeats < 500)
  | [] -> Alcotest.fail "rows expected");
  (* Monotonicity: fewer qualifying requests at higher thresholds. *)
  let longs = List.map (fun r -> r.Workload.Analyzer.n_long) rows in
  let rec dec = function
    | a :: (b :: _ as rest) -> a >= b && dec rest
    | _ -> true
  in
  check_bool "n_long decreasing" true (dec longs)

let test_exp_table2_shape () =
  let rows =
    Swala.Experiments.table2 ~clients:[ 4; 32 ] ~requests_per_client:15 ()
  in
  List.iter
    (fun r ->
      (* HTTPd trails the threaded servers by 2-7x (paper's finding). *)
      check_bool "httpd slowest" true
        (r.Swala.Experiments.httpd > r.Swala.Experiments.swala
        && r.Swala.Experiments.httpd > r.Swala.Experiments.enterprise);
      let ratio = r.Swala.Experiments.httpd /. r.Swala.Experiments.swala in
      check_bool "ratio in band" true (ratio > 1.5 && ratio < 10.))
    rows;
  (* Enterprise wins at low client counts, Swala at high. *)
  (match rows with
  | [ low; high ] ->
      check_bool "enterprise faster at low load" true
        (low.Swala.Experiments.enterprise < low.Swala.Experiments.swala);
      check_bool "swala faster at high load" true
        (high.Swala.Experiments.swala < high.Swala.Experiments.enterprise)
  | _ -> Alcotest.fail "two rows")

let test_exp_figure3_shape () =
  let f = Swala.Experiments.figure3 ~requests_per_client:10 () in
  (* Paper: Swala no-cache comparable to HTTPd, faster than Enterprise;
     cache fetches are an order of magnitude cheaper; remote costs slightly
     more than local. *)
  check_bool "enterprise slowest" true
    (f.Swala.Experiments.enterprise_f3 > f.Swala.Experiments.httpd_f3);
  check_bool "no-cache below httpd" true
    (f.Swala.Experiments.swala_no_cache < f.Swala.Experiments.httpd_f3);
  check_bool "local below remote" true
    (f.Swala.Experiments.swala_local < f.Swala.Experiments.swala_remote);
  check_bool "remote far below exec" true
    (f.Swala.Experiments.swala_remote < 0.5 *. f.Swala.Experiments.swala_no_cache)

let test_exp_figure4_shape () =
  let rows =
    Swala.Experiments.figure4 ~node_counts:[ 1; 4 ] ~n_requests:1_200 ()
  in
  match rows with
  | [ one; four ] ->
      check_bool "caching helps (1 node)" true
        (one.Swala.Experiments.improvement > 0.10);
      check_bool "caching helps (4 nodes)" true
        (four.Swala.Experiments.improvement > 0.10);
      check_bool "scales" true (four.Swala.Experiments.speedup_no_cache > 3.0)
  | _ -> Alcotest.fail "two rows"

let test_exp_table3_shape () =
  let rows = Swala.Experiments.table3 ~node_counts:[ 2; 4 ] ~n_requests:60 () in
  List.iter
    (fun r ->
      (* Insert+broadcast overhead exists but is well under 1% of the 1 s
         request time, and roughly node-count independent. *)
      check_bool "overhead positive" true (r.Swala.Experiments.increase_t3 >= 0.);
      check_bool "overhead tiny" true (r.Swala.Experiments.increase_t3 < 0.01))
    rows;
  match rows with
  | [ a; b ] ->
      check_bool "independent of nodes" true
        (Float.abs (a.Swala.Experiments.increase_t3 -. b.Swala.Experiments.increase_t3)
        < 0.005)
  | _ -> Alcotest.fail "two rows"

let test_exp_table4_shape () =
  let rows = Swala.Experiments.table4 ~ups_list:[ 0; 40 ] ~n_requests:50 () in
  match rows with
  | [ base; loaded ] ->
      check_int "base applies nothing" 0 base.Swala.Experiments.updates_applied;
      check_bool "updates applied" true (loaded.Swala.Experiments.updates_applied > 0);
      check_bool "increase tiny" true
        (loaded.Swala.Experiments.increase_t4 < 0.05)
  | _ -> Alcotest.fail "two rows"

let test_exp_hit_ratio_large_cache () =
  let rows =
    Swala.Experiments.hit_ratio_table ~node_counts:[ 1; 4 ] ~n:400
      ~n_unique:280 ~cache_size:2000 ()
  in
  match rows with
  | [ one; four ] ->
      (* At this small scale, 16 simultaneous streams make concurrent false
         misses proportionally larger than in the full-size run, so the
         near-optimal band is a bit wider than the paper's 97%. *)
      check_bool "coop near optimal at 1" true (one.Swala.Experiments.coop_pct > 0.8);
      check_bool "coop near optimal at 4" true (four.Swala.Experiments.coop_pct > 0.8);
      check_bool "standalone drops with nodes" true
        (four.Swala.Experiments.standalone_pct < one.Swala.Experiments.standalone_pct);
      check_bool "coop beats standalone at 4" true
        (four.Swala.Experiments.coop_hits > four.Swala.Experiments.standalone_hits)
  | _ -> Alcotest.fail "two rows"

let test_exp_hit_ratio_small_cache () =
  let rows =
    Swala.Experiments.hit_ratio_table ~node_counts:[ 1; 4 ] ~n:400
      ~n_unique:280 ~cache_size:8 ()
  in
  match rows with
  | [ one; four ] ->
      (* Paper Table 6: with a tiny cache, cooperative hit ratio grows with
         the number of nodes (aggregate capacity grows). *)
      check_bool "coop grows with nodes" true
        (four.Swala.Experiments.coop_pct > one.Swala.Experiments.coop_pct);
      check_bool "coop beats standalone" true
        (four.Swala.Experiments.coop_hits >= four.Swala.Experiments.standalone_hits)
  | _ -> Alcotest.fail "two rows"

let test_exp_ablation_policy_ranks () =
  let upper, rows =
    Swala.Experiments.ablation_policy ~cache_size:8 ~nodes:2 ()
  in
  check_int "all policies" (List.length Cache.Policy.all) (List.length rows);
  Invariants.check_rows "policy ablation" rows;
  List.iter
    (fun (_, r) ->
      check_bool "hits bounded" true (r.Swala.Cluster_runner.hits <= upper))
    rows

let test_exp_ablation_locking () =
  let rows = Swala.Experiments.ablation_locking ~nodes:2 () in
  check_int "three granularities" 3 (List.length rows);
  Invariants.check_rows "locking ablation" rows;
  let rd_locks g = fst (List.assoc g rows).Swala.Cluster_runner.dir_locks in
  check_bool "per-entry does more lock work" true
    (rd_locks Cache.Directory.Per_entry > rd_locks Cache.Directory.Per_table)

let test_exp_ablation_consistency () =
  let rows =
    Swala.Experiments.ablation_consistency ~latencies:[ 0.0002; 0.1 ] ~nodes:4 ()
  in
  Invariants.check_rows "consistency ablation" rows;
  match rows with
  | [ (_, fast); (_, slow) ] ->
      (* Wider inconsistency window => at least as many anomalies. *)
      let anomalies r =
        let get = Metrics.Counter.get r.Swala.Cluster_runner.counters in
        get Swala.Server.K.false_miss_duplicate + get Swala.Server.K.false_hit
      in
      check_bool "latency widens anomaly window" true
        (anomalies slow >= anomalies fast);
      check_bool "anomalies rare at LAN latency" true
        (anomalies fast <= 20)
  | _ -> Alcotest.fail "two rows"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "integration"
    [
      ( "cluster-runner",
        [
          Alcotest.test_case "all requests measured" `Quick test_runner_counts_all_requests;
          Alcotest.test_case "hit accounting" `Quick test_runner_hit_accounting;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "coop >= standalone" `Quick test_runner_coop_beats_standalone;
          Alcotest.test_case "caching beats no-cache" `Quick
            test_runner_caching_beats_no_cache;
          Alcotest.test_case "utilisation sane" `Quick test_runner_utilisation_sane;
          Alcotest.test_case "file/cgi split" `Quick test_runner_file_and_cgi_split;
          Alcotest.test_case "warmup precedes clients" `Quick test_runner_warmup_runs_first;
          Alcotest.test_case "assign override" `Quick test_runner_assign_override;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 shape" `Quick test_exp_table1_shape;
          Alcotest.test_case "table2 shape" `Quick test_exp_table2_shape;
          Alcotest.test_case "figure3 shape" `Quick test_exp_figure3_shape;
          Alcotest.test_case "figure4 shape" `Slow test_exp_figure4_shape;
          Alcotest.test_case "table3 shape" `Quick test_exp_table3_shape;
          Alcotest.test_case "table4 shape" `Quick test_exp_table4_shape;
          Alcotest.test_case "hit ratios, large cache" `Quick
            test_exp_hit_ratio_large_cache;
          Alcotest.test_case "hit ratios, small cache" `Quick
            test_exp_hit_ratio_small_cache;
          Alcotest.test_case "policy ablation" `Quick test_exp_ablation_policy_ranks;
          Alcotest.test_case "locking ablation" `Quick test_exp_ablation_locking;
          Alcotest.test_case "consistency ablation" `Quick test_exp_ablation_consistency;
        ] );
    ]
