(* Tests for the Swala core: configuration and single/multi-node server
   behaviour (Figure 2's control flow, daemons, counters). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_default_valid () =
  Swala.Config.validate Swala.Config.default

let test_config_make_overrides () =
  let cfg = Swala.Config.make ~n_nodes:4 ~cache_capacity:20 () in
  check_int "nodes" 4 cfg.Swala.Config.n_nodes;
  check_int "capacity" 20 cfg.Swala.Config.cache_capacity;
  (* untouched fields keep defaults *)
  check_int "threads" 16 cfg.Swala.Config.threads_per_node

let test_config_validation () =
  let inv cfg = try Swala.Config.validate cfg; false with Invalid_argument _ -> true in
  check_bool "nodes" true (inv (Swala.Config.make ~n_nodes:0 ()));
  check_bool "threads" true (inv (Swala.Config.make ~threads_per_node:0 ()));
  check_bool "capacity" true (inv (Swala.Config.make ~cache_capacity:0 ()));
  check_bool "threshold" true (inv (Swala.Config.make ~cache_threshold:(-1.) ()));
  check_bool "ttl" true (inv (Swala.Config.make ~default_ttl:(Some 0.) ()))

let test_config_mode_names () =
  check_string "disabled" "no-cache"
    (Swala.Config.cache_mode_to_string Swala.Config.Disabled);
  check_string "standalone" "standalone"
    (Swala.Config.cache_mode_to_string Swala.Config.Standalone);
  check_string "coop" "cooperative"
    (Swala.Config.cache_mode_to_string Swala.Config.Cooperative)

let test_config_models_distinct () =
  check_bool "httpd forks" true
    (Swala.Config.httpd_model.Swala.Config.per_request_fork > 0.);
  check_bool "swala does not" true
    (Swala.Config.swala_model.Swala.Config.per_request_fork = 0.);
  check_bool "enterprise slower cgi" true
    (Swala.Config.enterprise_model.Swala.Config.cgi_overhead_factor
    > Swala.Config.swala_model.Swala.Config.cgi_overhead_factor)

(* ------------------------------------------------------------------ *)
(* Server harness *)

let make_registry () =
  let r = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts r;
  Workload.Webstone.register_files r;
  Cgi.Registry.register r
    (Cgi.Script.make ~name:"/cgi-bin/fast"
       (Cgi.Cost.make ~fork_exec:0.01 ~output_bytes:256 (Cgi.Cost.Fixed 0.5)));
  Cgi.Registry.register r
    (Cgi.Script.make ~cacheable:false ~name:"/cgi-bin/personal"
       (Cgi.Cost.make (Cgi.Cost.Fixed 0.5)));
  Cgi.Registry.register r
    (Cgi.Script.make ~ttl:(Some 2.0) ~name:"/cgi-bin/ttl"
       (Cgi.Cost.make (Cgi.Cost.Fixed 0.5)));
  r

(* Run [script] inside a fresh cluster; returns the cluster after the
   simulation drains. *)
let with_cluster ?(cfg = Swala.Config.make ()) script =
  let eng = Sim.Engine.create () in
  let registry = make_registry () in
  let cluster =
    Swala.Server.create_cluster eng cfg ~registry
      ~n_client_endpoints:4
  in
  Swala.Server.start cluster;
  Sim.Engine.spawn eng (fun () ->
      script cluster;
      Swala.Server.stop cluster);
  Sim.Engine.run eng;
  cluster

let client_of cluster i = Swala.Server.n_nodes cluster + i
let get cluster k = Metrics.Counter.get (Swala.Server.merged_counters cluster) k

let submit0 cluster target =
  Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:0
    (Http.Request.get target)

(* ------------------------------------------------------------------ *)
(* Single-node behaviour *)

let test_server_file_fetch () =
  let cluster =
    with_cluster (fun cluster ->
        let resp = submit0 cluster "/files/doc-5k.html" in
        check_int "200" 200 (Http.Status.code resp.Http.Response.status);
        check_int "declared size" 5000
          (Http.Body.length resp.Http.Response.body))
  in
  check_int "file counted" 1 (get cluster Swala.Server.K.file_fetches)

(* The network carries exactly the request and the reply the client
   receives, body included. *)
let test_server_reply_charged () =
  let req = Http.Request.get "/files/doc-5k.html" in
  ignore
    (with_cluster ~cfg:(Swala.Config.make ~n_nodes:1 ()) (fun cluster ->
         let reply =
           Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:0 req
         in
         check_int "body length" 5000
           (Http.Body.length reply.Http.Response.body);
         check_int "bytes on the wire"
           (Http.Request.wire_size req + Http.Response.wire_size reply)
           (Sim.Net.bytes_sent (Swala.Server.net cluster)))
      : Swala.Server.cluster)

let test_server_404 () =
  let cluster =
    with_cluster (fun cluster ->
        let resp = submit0 cluster "/no/such/path" in
        check_int "404" 404 (Http.Status.code resp.Http.Response.status))
  in
  check_int "counted" 1 (get cluster Swala.Server.K.not_found)

let test_server_cgi_exec_and_cache_hit () =
  let cluster =
    with_cluster (fun cluster ->
        let r1 = submit0 cluster "/cgi-bin/fast?q=1" in
        let r2 = submit0 cluster "/cgi-bin/fast?q=1" in
        check_int "200" 200 (Http.Status.code r1.Http.Response.status);
        check_string "cached body identical"
          (Http.Body.to_string r1.Http.Response.body)
          (Http.Body.to_string r2.Http.Response.body))
  in
  check_int "one exec" 1 (get cluster Swala.Server.K.cgi_execs);
  check_int "one local hit" 1 (get cluster Swala.Server.K.hit_local);
  check_int "one insert" 1 (get cluster Swala.Server.K.inserts)

let test_server_cache_disabled_always_execs () =
  let cluster =
    with_cluster ~cfg:(Swala.Config.make ~cache_mode:Swala.Config.Disabled ())
      (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        ignore (submit0 cluster "/cgi-bin/fast?q=1"))
  in
  check_int "both executed" 2 (get cluster Swala.Server.K.cgi_execs);
  check_int "no hits" 0 (get cluster Swala.Server.K.hit_local);
  check_int "no inserts" 0 (get cluster Swala.Server.K.inserts)

let test_server_uncacheable_script () =
  let cluster =
    with_cluster (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/personal?u=alice");
        ignore (submit0 cluster "/cgi-bin/personal?u=alice"))
  in
  check_int "both executed" 2 (get cluster Swala.Server.K.cgi_execs);
  check_int "flagged uncacheable" 2 (get cluster Swala.Server.K.uncacheable);
  check_int "never inserted" 0 (get cluster Swala.Server.K.inserts)

let test_server_post_not_cached () =
  let cluster =
    with_cluster (fun cluster ->
        let req = Http.Request.make Http.Meth.Post "/cgi-bin/fast?q=1" in
        ignore (Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:0 req);
        ignore (Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:0 req))
  in
  check_int "both executed" 2 (get cluster Swala.Server.K.cgi_execs);
  check_int "uncacheable" 2 (get cluster Swala.Server.K.uncacheable)

let test_server_threshold_rejects_fast_cgi () =
  let cfg = Swala.Config.make ~cache_threshold:10.0 () in
  let cluster =
    with_cluster ~cfg (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        ignore (submit0 cluster "/cgi-bin/fast?q=1"))
  in
  check_int "never cached" 0 (get cluster Swala.Server.K.inserts);
  check_int "below threshold" 2 (get cluster Swala.Server.K.below_threshold);
  check_int "both executed" 2 (get cluster Swala.Server.K.cgi_execs)

let test_server_capacity_eviction_on_node () =
  let cfg = Swala.Config.make ~cache_capacity:2 () in
  let cluster =
    with_cluster ~cfg (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        ignore (submit0 cluster "/cgi-bin/fast?q=2");
        ignore (submit0 cluster "/cgi-bin/fast?q=3");
        (* q=1 was evicted (LRU): asking again re-executes *)
        ignore (submit0 cluster "/cgi-bin/fast?q=1"))
  in
  check_int "four executions" 4 (get cluster Swala.Server.K.cgi_execs);
  let store = Swala.Server.node_store (Swala.Server.node cluster 0) in
  check_int "bounded" 2 (Cache.Store.length store)

let test_server_ttl_expiry_end_to_end () =
  let cluster =
    with_cluster (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/ttl?q=1");
        (* TTL is 2s: within it, hit; after it, re-exec. *)
        Sim.Engine.delay 1.0;
        ignore (submit0 cluster "/cgi-bin/ttl?q=1");
        Sim.Engine.delay 5.0;
        ignore (submit0 cluster "/cgi-bin/ttl?q=1"))
  in
  check_int "two executions" 2 (get cluster Swala.Server.K.cgi_execs);
  check_int "one hit" 1 (get cluster Swala.Server.K.hit_local)

let test_server_purge_daemon_removes_expired () =
  let cluster =
    with_cluster (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/ttl?q=1");
        (* Wait past TTL (2s) and the first purge tick without touching
           it. *)
        Sim.Engine.delay (Swala.Config.purge_interval +. 1.0);
        let store = Swala.Server.node_store (Swala.Server.node cluster 0) in
        check_int "purged from store" 0 (Cache.Store.length store))
  in
  check_bool "purge counted" true (get cluster Swala.Server.K.purged >= 1)

let test_server_preload () =
  let cluster =
    with_cluster (fun cluster ->
        Swala.Server.preload cluster ~node:0
          (Http.Request.get "/cgi-bin/fast?q=9")
          ~exec_time:0.5;
        ignore (submit0 cluster "/cgi-bin/fast?q=9"))
  in
  check_int "no exec" 0 (get cluster Swala.Server.K.cgi_execs);
  check_int "hit" 1 (get cluster Swala.Server.K.hit_local)

let test_server_failed_cgi_not_cached () =
  let eng = Sim.Engine.create () in
  let registry = make_registry () in
  Cgi.Registry.register registry
    (Cgi.Script.make ~failure_rate:1.0 ~name:"/cgi-bin/flaky"
       (Cgi.Cost.make (Cgi.Cost.Fixed 0.5)));
  let cluster =
    Swala.Server.create_cluster eng (Swala.Config.make ()) ~registry
      ~n_client_endpoints:1
  in
  Swala.Server.start cluster;
  let status = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      let resp =
        Swala.Server.submit cluster ~client:1 ~node:0
          (Http.Request.get "/cgi-bin/flaky?q=1")
      in
      status := Http.Status.code resp.Http.Response.status;
      Swala.Server.stop cluster);
  Sim.Engine.run eng;
  check_int "500" 500 !status;
  check_int "failure counted" 1 (get cluster Swala.Server.K.cgi_failures);
  check_int "not inserted" 0 (get cluster Swala.Server.K.inserts)

(* ------------------------------------------------------------------ *)
(* Multi-node behaviour *)

let coop_cfg n = Swala.Config.make ~n_nodes:n ()

let test_server_remote_fetch () =
  let cluster =
    with_cluster ~cfg:(coop_cfg 2) (fun cluster ->
        (* Execute on node 0; let the broadcast propagate; ask node 1. *)
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        Sim.Engine.delay 0.1;
        let resp =
          Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:1
            (Http.Request.get "/cgi-bin/fast?q=1")
        in
        check_int "200" 200 (Http.Status.code resp.Http.Response.status))
  in
  check_int "one exec" 1 (get cluster Swala.Server.K.cgi_execs);
  check_int "remote hit" 1 (get cluster Swala.Server.K.hit_remote);
  check_int "insert broadcast" 1 (get cluster Swala.Server.K.broadcast_insert)

let test_server_broadcast_updates_peer_directory () =
  let cluster =
    with_cluster ~cfg:(coop_cfg 3) (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        Sim.Engine.delay 0.1;
        let dir1 = Planes.directory cluster 1 in
        let dir2 = Planes.directory cluster 2 in
        check_int "peer 1 learned" 1 (Cache.Directory.table_size dir1 ~node:0);
        check_int "peer 2 learned" 1 (Cache.Directory.table_size dir2 ~node:0))
  in
  check_int "applied twice" 2 (get cluster Swala.Server.K.info_applied)

let test_server_false_hit_recovery () =
  let cluster =
    with_cluster ~cfg:(coop_cfg 2) (fun cluster ->
        Swala.Server.preload cluster ~node:0
          (Http.Request.get "/cgi-bin/fast?q=7")
          ~exec_time:0.5;
        Sim.Engine.delay 0.1;
        (* Drop the entry from node 0's store without telling anyone:
           node 1's directory still names node 0 as the owner. *)
        let store0 = Swala.Server.node_store (Swala.Server.node cluster 0) in
        ignore (Cache.Store.remove store0 "GET /cgi-bin/fast?q=7&xb=256");
        ignore (Cache.Store.remove store0 "GET /cgi-bin/fast?q=7");
        let resp =
          Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:1
            (Http.Request.get "/cgi-bin/fast?q=7")
        in
        check_int "still 200" 200 (Http.Status.code resp.Http.Response.status))
  in
  check_int "false hit counted" 1 (get cluster Swala.Server.K.false_hit);
  check_int "recovered by executing" 1 (get cluster Swala.Server.K.cgi_execs)

let test_server_false_miss_concurrent () =
  let cluster =
    with_cluster (fun cluster ->
        (* Two identical requests arrive while the first is still running:
           the second must re-execute (no waiting), and be counted. *)
        let l = Sim.Latch.create 2 in
        for _ = 1 to 2 do
          Sim.Engine.spawn_child (fun () ->
              ignore (submit0 cluster "/cgi-bin/fast?q=dup");
              Sim.Latch.arrive l)
        done;
        Sim.Latch.wait l)
  in
  check_int "both executed" 2 (get cluster Swala.Server.K.cgi_execs);
  check_int "false miss counted" 1
    (get cluster Swala.Server.K.false_miss_concurrent)

let test_server_standalone_no_broadcast () =
  let cfg = Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Standalone () in
  let cluster =
    with_cluster ~cfg (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        Sim.Engine.delay 0.1;
        (* Node 1 knows nothing: it must re-execute. *)
        ignore
          (Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:1
             (Http.Request.get "/cgi-bin/fast?q=1")))
  in
  check_int "both executed" 2 (get cluster Swala.Server.K.cgi_execs);
  check_int "no broadcasts" 0 (get cluster Swala.Server.K.broadcast_insert);
  check_int "no remote hits" 0 (get cluster Swala.Server.K.hit_remote)

let test_server_eviction_broadcasts_delete () =
  let cfg = Swala.Config.make ~n_nodes:2 ~cache_capacity:1 () in
  let cluster =
    with_cluster ~cfg (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        ignore (submit0 cluster "/cgi-bin/fast?q=2");
        Sim.Engine.delay 0.1;
        (* Node 1's replica must no longer list q=1 for node 0. *)
        let dir1 = Planes.directory cluster 1 in
        check_int "only one entry listed" 1 (Cache.Directory.table_size dir1 ~node:0))
  in
  check_bool "delete broadcast sent" true
    (get cluster Swala.Server.K.broadcast_delete >= 1)

let test_server_counters_requests_total () =
  let cluster =
    with_cluster (fun cluster ->
        ignore (submit0 cluster "/files/doc-500b.html");
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        ignore (submit0 cluster "/nope"))
  in
  check_int "requests" 3 (get cluster Swala.Server.K.requests)

let test_total_hits () =
  let cluster =
    with_cluster ~cfg:(coop_cfg 2) (fun cluster ->
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        ignore (submit0 cluster "/cgi-bin/fast?q=1");
        Sim.Engine.delay 0.1;
        ignore
          (Swala.Server.submit cluster ~client:(client_of cluster 0) ~node:1
             (Http.Request.get "/cgi-bin/fast?q=1")))
  in
  check_int "local+remote" 2 (Swala.Server.total_hits cluster)

let test_server_node_range_checks () =
  let cluster = with_cluster (fun _ -> ()) in
  Alcotest.check_raises "bad node" (Invalid_argument "Server.node: range")
    (fun () -> ignore (Swala.Server.node cluster 9))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "swala"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "make overrides" `Quick test_config_make_overrides;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "mode names" `Quick test_config_mode_names;
          Alcotest.test_case "models distinct" `Quick test_config_models_distinct;
        ] );
      ( "single-node",
        [
          Alcotest.test_case "file fetch" `Quick test_server_file_fetch;
          Alcotest.test_case "client charged for the reply" `Quick
            test_server_reply_charged;
          Alcotest.test_case "404" `Quick test_server_404;
          Alcotest.test_case "CGI exec then cache hit" `Quick
            test_server_cgi_exec_and_cache_hit;
          Alcotest.test_case "disabled mode always executes" `Quick
            test_server_cache_disabled_always_execs;
          Alcotest.test_case "uncacheable script" `Quick test_server_uncacheable_script;
          Alcotest.test_case "POST never cached" `Quick test_server_post_not_cached;
          Alcotest.test_case "threshold rejects fast CGI" `Quick
            test_server_threshold_rejects_fast_cgi;
          Alcotest.test_case "capacity eviction" `Quick test_server_capacity_eviction_on_node;
          Alcotest.test_case "TTL expiry end to end" `Quick test_server_ttl_expiry_end_to_end;
          Alcotest.test_case "purge daemon" `Quick test_server_purge_daemon_removes_expired;
          Alcotest.test_case "preload warms cache" `Quick test_server_preload;
          Alcotest.test_case "failed CGI not cached" `Quick test_server_failed_cgi_not_cached;
        ] );
      ( "multi-node",
        [
          Alcotest.test_case "remote fetch" `Quick test_server_remote_fetch;
          Alcotest.test_case "broadcast updates peer directories" `Quick
            test_server_broadcast_updates_peer_directory;
          Alcotest.test_case "false hit recovers by executing" `Quick
            test_server_false_hit_recovery;
          Alcotest.test_case "concurrent duplicate is a false miss" `Quick
            test_server_false_miss_concurrent;
          Alcotest.test_case "standalone never cooperates" `Quick
            test_server_standalone_no_broadcast;
          Alcotest.test_case "eviction broadcasts delete" `Quick
            test_server_eviction_broadcasts_delete;
          Alcotest.test_case "request counter" `Quick test_server_counters_requests_total;
          Alcotest.test_case "total hits" `Quick test_total_hits;
          Alcotest.test_case "node range checks" `Quick test_server_node_range_checks;
        ] );
    ]
