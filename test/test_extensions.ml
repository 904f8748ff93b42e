(* Tests for the extension features: administrator rules, the store's
   [remove_matching], invalidation (push and file-monitoring), strong
   consistency, request routing, CLF import. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* Rules *)

let test_rules_empty_defaults () =
  let d = Swala.Rules.decide Swala.Rules.empty "/anything" in
  check_bool "cacheable" true d.Swala.Rules.cacheable;
  check_bool "no ttl" true (d.Swala.Rules.ttl = None);
  check_bool "no threshold" true (d.Swala.Rules.threshold = None)

let test_rules_parse_basic () =
  let t =
    ok_or_fail "parse"
      (Swala.Rules.parse
         "# config\ncache /cgi-bin/query ttl=3600 threshold=0.5\nnocache \
          /cgi-bin/private\n")
  in
  check_int "two rules" 2 (Swala.Rules.rule_count t);
  let q = Swala.Rules.decide t "/cgi-bin/query" in
  check_bool "query cacheable" true q.Swala.Rules.cacheable;
  Alcotest.(check (option (float 1e-9))) "ttl" (Some 3600.) q.Swala.Rules.ttl;
  Alcotest.(check (option (float 1e-9))) "threshold" (Some 0.5)
    q.Swala.Rules.threshold;
  let p = Swala.Rules.decide t "/cgi-bin/private" in
  check_bool "private blocked" false p.Swala.Rules.cacheable

let test_rules_longest_prefix_wins () =
  let t =
    ok_or_fail "parse"
      (Swala.Rules.parse "cache /cgi-bin/\nnocache /cgi-bin/private\n")
  in
  check_bool "general prefix allows" true
    (Swala.Rules.decide t "/cgi-bin/query").Swala.Rules.cacheable;
  check_bool "specific prefix blocks" false
    (Swala.Rules.decide t "/cgi-bin/private").Swala.Rules.cacheable;
  check_bool "sub-path of specific also blocked" false
    (Swala.Rules.decide t "/cgi-bin/private/x").Swala.Rules.cacheable

let test_rules_default_directive () =
  let t = ok_or_fail "parse" (Swala.Rules.parse "default nocache\ncache /ok\n") in
  check_bool "unmatched blocked" false
    (Swala.Rules.decide t "/other").Swala.Rules.cacheable;
  check_bool "matched allowed" true (Swala.Rules.decide t "/ok").Swala.Rules.cacheable

let test_rules_default_ttl_threshold () =
  let t =
    ok_or_fail "parse"
      (Swala.Rules.parse "default-ttl 600\ndefault-threshold 0.25\n")
  in
  let d = Swala.Rules.decide t "/x" in
  Alcotest.(check (option (float 1e-9))) "ttl" (Some 600.) d.Swala.Rules.ttl;
  Alcotest.(check (option (float 1e-9))) "threshold" (Some 0.25)
    d.Swala.Rules.threshold

let test_rules_parse_errors () =
  let err s = Result.is_error (Swala.Rules.parse s) in
  check_bool "unknown directive" true (err "frobnicate /x\n");
  check_bool "relative path" true (err "cache relative\n");
  check_bool "bad attr" true (err "cache /x ttl=abc\n");
  check_bool "unknown attr" true (err "cache /x color=red\n");
  check_bool "bad default-ttl" true (err "default-ttl -1\n");
  (match Swala.Rules.parse "cache /a\nbogus\n" with
  | Error e -> check_bool "line number" true (String.length e > 5 && e.[5] = '2')
  | Ok _ -> Alcotest.fail "should fail")

let test_rules_to_string_roundtrip () =
  let text =
    "default nocache\ndefault-ttl 600\ncache /cgi-bin/q ttl=10 threshold=0.5\n\
     nocache /cgi-bin/p\n"
  in
  let t = ok_or_fail "parse" (Swala.Rules.parse text) in
  let t2 = ok_or_fail "reparse" (Swala.Rules.parse (Swala.Rules.to_string t)) in
  List.iter
    (fun path ->
      let a = Swala.Rules.decide t path and b = Swala.Rules.decide t2 path in
      check_bool ("same decision for " ^ path) true (a = b))
    [ "/cgi-bin/q"; "/cgi-bin/p"; "/other" ]

let test_rules_server_integration () =
  (* The rule blocks a script that is otherwise cacheable. *)
  let rules =
    ok_or_fail "parse" (Swala.Rules.parse "nocache /cgi-bin/query\n")
  in
  let trace = Workload.Synthetic.coop ~seed:3 ~n:40 ~n_unique:10 ~n_hot:5 () in
  let blocked =
    Swala.Cluster_runner.run (Swala.Config.make ~rules ()) ~trace ~n_streams:4 ()
  in
  check_int "no hits when rule blocks" 0 blocked.Swala.Cluster_runner.hits;
  let allowed =
    Swala.Cluster_runner.run (Swala.Config.make ()) ~trace ~n_streams:4 ()
  in
  check_bool "hits without the rule" true (allowed.Swala.Cluster_runner.hits > 0)

let test_rules_ttl_override () =
  (* Rule TTL (short) beats server default (none): entries expire. *)
  let rules =
    ok_or_fail "parse" (Swala.Rules.parse "cache /cgi-bin/query ttl=0.5\n")
  in
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let engine = Sim.Engine.create () in
  let cluster =
    Swala.Server.create_cluster engine
      (Swala.Config.make ~rules ())
      ~registry ~n_client_endpoints:1
  in
  Swala.Server.start cluster;
  Sim.Engine.spawn engine (fun () ->
      let req = Http.Request.get "/cgi-bin/query?q=a&xd=0.3" in
      ignore (Swala.Server.submit cluster ~client:1 ~node:0 req);
      Sim.Engine.delay 2.0;
      (* TTL 0.5 expired: re-executes *)
      ignore (Swala.Server.submit cluster ~client:1 ~node:0 req);
      Swala.Server.stop cluster);
  Sim.Engine.run engine;
  let c = Swala.Server.merged_counters cluster in
  check_int "expired, so two executions" 2
    (Metrics.Counter.get c Swala.Server.K.cgi_execs)

let prop_rules_parse_total =
  Fuzz.total ~name:"parse is total" ~count:(Qcheck_count.or_default 200)
    ~seeds:
      [
        "# comment\n\
         cache   /cgi-bin/query  ttl=3600  threshold=0.5\n\
         cache /cgi-bin/\n\
         nocache /cgi-bin/private\n\
         default cache\n\
         default-ttl 600\n\
         default-threshold 0.1\n";
      ]
    ~punct:" \t\n#=/.-0123456789" Swala.Rules.parse

(* ------------------------------------------------------------------ *)
(* Store: remove_matching *)

let meta key =
  Cache.Meta.make ~key ~owner:0 ~size:100 ~exec_time:1.0 ~created:0.
    ~expires:None

let test_store_remove_matching () =
  let s =
    Cache.Store.create ~capacity:10 ~policy:Cache.Policy.Lru
      ~clock:(fun () -> 0.)
      ()
  in
  ignore (Cache.Store.insert s (meta "GET /a?x=1") "");
  ignore (Cache.Store.insert s (meta "GET /a?x=2") "");
  ignore (Cache.Store.insert s (meta "GET /b?x=1") "");
  let removed =
    Cache.Store.remove_matching s (fun k ->
        String.length k >= 6 && String.equal (String.sub k 0 6) "GET /a")
  in
  check_int "two removed" 2 (List.length removed);
  check_int "one left" 1 (Cache.Store.length s);
  check_bool "b survives" true (Cache.Store.mem s "GET /b?x=1")

(* ------------------------------------------------------------------ *)
(* Invalidation + Filemon *)

let make_registry_inval () =
  let r = Cgi.Registry.create () in
  Cgi.Registry.register r
    (Cgi.Script.make ~name:"/cgi-bin/report"
       ~sources:[ "/data/sales.db"; "/data/fx.rates" ]
       (Cgi.Cost.make (Cgi.Cost.Fixed 0.5)));
  Cgi.Registry.register r
    (Cgi.Script.make ~name:"/cgi-bin/other" ~sources:[ "/data/fx.rates" ]
       (Cgi.Cost.make (Cgi.Cost.Fixed 0.5)));
  r

let run_cluster_script ~cfg ~registry script =
  let engine = Sim.Engine.create () in
  let cluster =
    Swala.Server.create_cluster engine cfg ~registry ~n_client_endpoints:2
  in
  Swala.Server.start cluster;
  Sim.Engine.spawn engine (fun () ->
      script cluster;
      Swala.Server.stop cluster);
  Sim.Engine.run engine;
  cluster

let test_filemon_index () =
  let m = Swala.Filemon.create (make_registry_inval ()) in
  Alcotest.(check (list string)) "watched"
    [ "/data/fx.rates"; "/data/sales.db" ]
    (Swala.Filemon.watched m);
  Alcotest.(check (list string)) "fx readers"
    [ "/cgi-bin/other"; "/cgi-bin/report" ]
    (Swala.Filemon.scripts_for m "/data/fx.rates");
  Alcotest.(check (list string)) "unknown file" []
    (Swala.Filemon.scripts_for m "/data/nope")

let test_invalidate_key () =
  let registry = make_registry_inval () in
  let cfg = Swala.Config.make ~n_nodes:1 () in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        ignore
          (Swala.Server.submit cluster ~client:1 ~node:0
             (Http.Request.get "/cgi-bin/report?q=1"));
        let dropped =
          Swala.Server.invalidate cluster ~key:"GET /cgi-bin/report?q=1"
        in
        check_int "one dropped" 1 dropped;
        check_int "idempotent" 0
          (Swala.Server.invalidate cluster ~key:"GET /cgi-bin/report?q=1");
        (* Re-request executes again. *)
        ignore
          (Swala.Server.submit cluster ~client:1 ~node:0
             (Http.Request.get "/cgi-bin/report?q=1")))
  in
  let c = Swala.Server.merged_counters cluster in
  check_int "two executions" 2 (Metrics.Counter.get c Swala.Server.K.cgi_execs);
  check_int "counted" 1 (Metrics.Counter.get c Swala.Server.K.invalidations)

let test_invalidate_script_all_args () =
  let registry = make_registry_inval () in
  let cfg = Swala.Config.make ~n_nodes:2 () in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        ignore
          (Swala.Server.submit cluster ~client:2 ~node:0
             (Http.Request.get "/cgi-bin/report?q=1"));
        ignore
          (Swala.Server.submit cluster ~client:2 ~node:1
             (Http.Request.get "/cgi-bin/report?q=2"));
        ignore
          (Swala.Server.submit cluster ~client:2 ~node:0
             (Http.Request.get "/cgi-bin/other?q=1"));
        Sim.Engine.delay 0.1;
        let dropped = Swala.Server.invalidate_script cluster ~script:"/cgi-bin/report" in
        check_int "both arg combos dropped, other spared" 2 dropped;
        Sim.Engine.delay 0.1;
        (* Peer directories must no longer advertise the dropped entries:
           requesting on the other node re-executes rather than remote-fetching. *)
        ignore
          (Swala.Server.submit cluster ~client:2 ~node:1
             (Http.Request.get "/cgi-bin/report?q=1")))
  in
  let c = Swala.Server.merged_counters cluster in
  check_int "false hits avoided" 0 (Metrics.Counter.get c Swala.Server.K.false_hit);
  check_int "re-executed" 4 (Metrics.Counter.get c Swala.Server.K.cgi_execs)

let test_filemon_on_change () =
  let registry = make_registry_inval () in
  let cfg = Swala.Config.make ~n_nodes:1 () in
  let monitor = Swala.Filemon.create registry in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        ignore
          (Swala.Server.submit cluster ~client:1 ~node:0
             (Http.Request.get "/cgi-bin/report?q=1"));
        ignore
          (Swala.Server.submit cluster ~client:1 ~node:0
             (Http.Request.get "/cgi-bin/other?q=1"));
        (* fx.rates feeds both scripts. *)
        check_int "both dropped" 2
          (Swala.Filemon.on_change monitor cluster "/data/fx.rates");
        check_int "unknown file no-op" 0
          (Swala.Filemon.on_change monitor cluster "/data/unrelated"))
  in
  ignore cluster

(* ------------------------------------------------------------------ *)
(* Strong consistency *)

let test_strong_consistency_visible_on_reply () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:3 ~consistency:Swala.Config.Strong ()
  in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        ignore
          (Swala.Server.submit cluster ~client:3 ~node:0
             (Http.Request.get "/cgi-bin/query?q=a&xd=0.5"));
        (* Immediately after the reply, every replica must already know. *)
        let dir1 = Planes.directory cluster 1 in
        let dir2 = Planes.directory cluster 2 in
        check_int "replica 1 consistent" 1 (Cache.Directory.table_size dir1 ~node:0);
        check_int "replica 2 consistent" 1 (Cache.Directory.table_size dir2 ~node:0))
  in
  let c = Swala.Server.merged_counters cluster in
  check_int "two acks" 2 (Metrics.Counter.get c Swala.Server.K.acks_sent)

let test_weak_consistency_lags () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg = Swala.Config.make ~n_nodes:2 ~consistency:Swala.Config.Weak () in
  let saw_lag = ref false in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        ignore
          (Swala.Server.submit cluster ~client:2 ~node:0
             (Http.Request.get "/cgi-bin/query?q=a&xd=0.5"));
        let dir1 = Planes.directory cluster 1 in
        (* At the instant the client is answered, the async broadcast is
           still in flight. *)
        if Cache.Directory.table_size dir1 ~node:0 = 0 then saw_lag := true;
        Sim.Engine.delay 0.1;
        check_int "eventually applied" 1 (Cache.Directory.table_size dir1 ~node:0))
  in
  ignore cluster;
  check_bool "replica lagged at reply time" true !saw_lag

let test_strong_consistency_runner () =
  (* The strong protocol must not change hit accounting, only timing. *)
  let trace = Workload.Synthetic.coop ~seed:5 ~n:200 ~n_unique:120 ~n_hot:20 () in
  let weak =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~consistency:Swala.Config.Weak ())
      ~trace ~n_streams:8 ()
  in
  let strong =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~consistency:Swala.Config.Strong ())
      ~trace ~n_streams:8 ()
  in
  check_bool "hit counts comparable" true
    (abs (weak.Swala.Cluster_runner.hits - strong.Swala.Cluster_runner.hits) < 10);
  (* At LAN latency the protocols are within scheduling noise of each
     other; the ablation's latency sweep is where strong visibly loses. *)
  check_bool "means within a few percent" true
    (let w = Swala.Cluster_runner.mean_response weak in
     let s = Swala.Cluster_runner.mean_response strong in
     Float.abs (s -. w) < 0.05 *. w)

(* ------------------------------------------------------------------ *)
(* Router *)

let router_cluster () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let engine = Sim.Engine.create () in
  let cluster =
    Swala.Server.create_cluster engine (Swala.Config.make ~n_nodes:4 ())
      ~registry ~n_client_endpoints:1
  in
  (engine, cluster)

let test_router_per_stream () =
  let _, cluster = router_cluster () in
  let r = Swala.Router.create Swala.Router.Per_stream in
  let req = Http.Request.get "/cgi-bin/query?q=a" in
  check_int "stream 1" 1 (Swala.Router.pick r cluster ~stream:1 req);
  check_int "wraps" 1 (Swala.Router.pick r cluster ~stream:5 req)

let test_router_round_robin () =
  let _, cluster = router_cluster () in
  let r = Swala.Router.create Swala.Router.Round_robin in
  let req = Http.Request.get "/x" in
  let picks = List.init 8 (fun _ -> Swala.Router.pick r cluster ~stream:0 req) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 3; 0; 1; 2; 3 ] picks

let test_router_key_affinity () =
  let _, cluster = router_cluster () in
  let r = Swala.Router.create Swala.Router.Key_affinity in
  let a1 = Http.Request.get "/cgi-bin/query?q=a" in
  let a2 = Http.Request.get "/cgi-bin/query?q=a" in
  let b = Http.Request.get "/cgi-bin/query?q=b" in
  check_int "same key same node"
    (Swala.Router.pick r cluster ~stream:0 a1)
    (Swala.Router.pick r cluster ~stream:7 a2);
  (* Parameter order must not change the target (canonical keys). *)
  let c1 = Http.Request.get "/cgi-bin/query?x=1&y=2" in
  let c2 = Http.Request.get "/cgi-bin/query?y=2&x=1" in
  check_int "canonical affinity"
    (Swala.Router.pick r cluster ~stream:0 c1)
    (Swala.Router.pick r cluster ~stream:0 c2);
  let n = Swala.Router.pick r cluster ~stream:0 b in
  check_bool "in range" true (n >= 0 && n < 4)

let test_router_least_active_prefers_idle () =
  let engine, cluster = router_cluster () in
  Swala.Server.start cluster;
  let picked = ref (-1) in
  Sim.Engine.spawn engine (fun () ->
      (* Load node 0 with a slow request, then route a second one. *)
      Sim.Engine.spawn_child (fun () ->
          ignore
            (Swala.Server.submit cluster ~client:4 ~node:0
               (Http.Request.get "/cgi-bin/query?q=slow&xd=2.0")));
      Sim.Engine.delay 0.5;
      let r = Swala.Router.create Swala.Router.Least_active in
      picked := Swala.Router.pick r cluster ~stream:0 (Http.Request.get "/x");
      Swala.Server.stop cluster);
  Sim.Engine.run engine;
  check_bool "avoids the busy node" true (!picked <> 0)

let test_router_affinity_lifts_standalone () =
  let trace = Workload.Synthetic.coop ~seed:9 ~n:400 ~n_unique:280 ~n_hot:40 () in
  let run router =
    (Swala.Cluster_runner.run
       (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Standalone ())
       ~trace ~n_streams:8 ~router ())
      .Swala.Cluster_runner.hits
  in
  let scattered = run Swala.Router.Per_stream in
  let affine = run Swala.Router.Key_affinity in
  check_bool "affinity concentrates repeats" true (affine > scattered + 20)

(* ------------------------------------------------------------------ *)
(* CLF *)

let clf_ok = {|host1 - alice [01/Sep/1997:12:00:01 -0700] "GET /docs/map.html HTTP/1.0" 200 5120
host2 - - [01/Sep/1997:12:00:02 -0700] "GET /cgi-bin/query?q=maps HTTP/1.0" 200 8192 1.75
host3 - - [01/Sep/1997:12:00:03 -0700] "POST /cgi-bin/submit HTTP/1.0" 200 64
host4 - - [01/Sep/1997:12:00:04 -0700] "GET /missing.html HTTP/1.0" 404 120
garbage line that is not CLF at all
|}

let test_clf_to_trace () =
  let trace, stats = Workload.Clf.to_trace clf_ok in
  check_int "kept" 2 stats.Workload.Clf.kept;
  check_int "method filtered" 1 stats.Workload.Clf.skipped_method;
  check_int "status filtered" 1 stats.Workload.Clf.skipped_status;
  check_int "malformed" 1 stats.Workload.Clf.malformed;
  match trace with
  | [ file; cgi ] ->
      check_bool "file kind" true (not (Workload.Trace.is_cgi file));
      check_float "file bytes -> service" (0.002 +. (5120. /. 80e6))
        (Workload.Trace.service_time file);
      check_bool "cgi kind" true (Workload.Trace.is_cgi cgi);
      check_float "trailing service time honoured" 1.75
        (Workload.Trace.service_time cgi)
  | _ -> Alcotest.fail "two items expected"

let test_clf_default_demand () =
  let line =
    {|h - - [01/Sep/1997:12:00:00 -0700] "GET /cgi-bin/x HTTP/1.0" 200 100|}
  in
  match Workload.Clf.parse_line ~default_cgi_demand:2.5 ~id:0 line with
  | Ok (Some item) -> check_float "default demand" 2.5 (Workload.Trace.service_time item)
  | Ok None -> Alcotest.fail "should keep"
  | Error e -> Alcotest.fail e

let test_clf_custom_prefix () =
  let line =
    {|h - - [01/Sep/1997:12:00:00 -0700] "GET /dynamic/x HTTP/1.0" 200 100|}
  in
  (match Workload.Clf.parse_line ~cgi_prefix:"/dynamic/" ~id:0 line with
  | Ok (Some item) -> check_bool "cgi under custom prefix" true (Workload.Trace.is_cgi item)
  | Ok None | Error _ -> Alcotest.fail "should be kept as cgi");
  match Workload.Clf.parse_line ~id:0 line with
  | Ok (Some item) ->
      check_bool "file under default prefix" true (not (Workload.Trace.is_cgi item))
  | Ok None | Error _ -> Alcotest.fail "should be kept as file"

let test_clf_errors () =
  let err line = Result.is_error (Workload.Clf.parse_line ~id:0 line) in
  check_bool "unterminated quote" true
    (err {|h - - [d] "GET /x HTTP/1.0 200 1|});
  check_bool "unterminated bracket" true (err {|h - - [d "GET /x HTTP/1.0" 200 1|});
  check_bool "few fields" true (err "h - -");
  check_bool "bad status" true (err {|h - - [d] "GET /x HTTP/1.0" two 1|})

let test_clf_roundtrip_via_item_to_line () =
  let trace = Workload.Synthetic.adl_scaled ~seed:4 ~n:300 in
  let text =
    String.concat "\n" (List.map Workload.Clf.item_to_line trace) ^ "\n"
  in
  let trace', stats = Workload.Clf.to_trace text in
  check_int "all kept" 300 stats.Workload.Clf.kept;
  check_int "none malformed" 0 stats.Workload.Clf.malformed;
  List.iter2
    (fun a b ->
      check_string "key preserved" (Workload.Trace.key a) (Workload.Trace.key b);
      check_bool "service close" true
        (Float.abs (Workload.Trace.service_time a -. Workload.Trace.service_time b)
        < 1e-4))
    trace trace'

let prop_clf_parse_line_total =
  Fuzz.total ~name:"parse_line is total" ~count:(Qcheck_count.or_default 200)
    ~seeds:
      [
        {|host - - [10/Oct/1995:13:55:36 -0700] "GET /cgi-bin/query?a=1 HTTP/1.0" 200 2326 1.6|};
        {|10.0.0.1 - frank [01/Jan/1996:00:00:00 +0000] "GET /index.html HTTP/1.0" 200 -|};
      ]
    ~punct:{| "[]/:-?&=.+0123456789|}
    (Workload.Clf.parse_line ~id:0)

(* ------------------------------------------------------------------ *)
(* Failure injection: message loss + fetch timeouts. A fault plan's link
   drop is the only way to lose a message. *)

let drop p = Some (Sim.Fault.make ~drop:p ())

let test_fetch_timeout_fallback () =
  (* Total message loss: the remote fetch can never succeed; the request
     thread must time out and execute locally, still answering 200. *)
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:2 ~fault:(drop 1.0) ~fetch_timeout:(Some 0.5) ()
  in
  let status = ref 0 in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        Swala.Server.preload cluster ~node:0
          (Http.Request.get "/cgi-bin/query?q=a&xd=0.3")
          ~exec_time:0.3;
        (* The insert broadcast is lost, so seed node 1's directory replica
           by hand to force it down the remote-fetch path. *)
        let dir1 = Planes.directory cluster 1 in
        Cache.Directory.insert dir1 ~node:0
          (Cache.Meta.make ~key:"GET /cgi-bin/query?q=a&xd=0.3" ~owner:0
             ~size:100 ~exec_time:0.3 ~created:0. ~expires:None);
        let resp =
          Swala.Server.submit cluster ~client:2 ~node:1
            (Http.Request.get "/cgi-bin/query?q=a&xd=0.3")
        in
        status := Http.Status.code resp.Http.Response.status)
  in
  check_int "still 200" 200 !status;
  let c = Swala.Server.merged_counters cluster in
  check_int "timeout counted" 1
    (Metrics.Counter.get c Swala.Server.K.fetch_timeouts);
  check_int "owner's table purged" 1
    (Metrics.Counter.get c Swala.Server.K.dir_suspect_purged);
  check_int "executed locally" 1 (Metrics.Counter.get c Swala.Server.K.cgi_execs)

let test_exhausted_fetch_purges_owner () =
  (* No fault plan, but a 0.1 ms fetch timeout is shorter than a fetch's
     0.4 ms round trip: every fetch that runs out of retries marks its
     owner suspect, whatever made it time out. *)
  let trace =
    Workload.Synthetic.coop ~seed:42 ~n:400 ~n_unique:280 ~locality:0.08 ()
  in
  let cfg =
    Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative
      ~fetch_timeout:(Some 1e-4) ()
  in
  let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:16 () in
  let get k = Metrics.Counter.get r.Swala.Cluster_runner.counters k in
  check_bool "fetches timed out" true (get Swala.Server.K.fetch_timeouts > 0);
  check_bool "their owners were purged" true
    (get Swala.Server.K.dir_suspect_purged > 0)

let test_loss_requires_timeout () =
  Alcotest.check_raises "config rejected"
    (Invalid_argument
       "Config: message loss or node crashes require a fetch_timeout (lost \
        replies would wedge request threads)") (fun () ->
      Swala.Config.validate (Swala.Config.make ~fault:(drop 0.5) ()))

let test_lossy_cluster_completes_workload () =
  (* 30% protocol-message loss: every request must still complete (some
     directory updates vanish, some fetches time out, but clients are
     always answered). *)
  let trace = Workload.Synthetic.coop ~seed:11 ~n:300 ~n_unique:150 ~n_hot:30 () in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~fault:(drop 0.3) ~fetch_timeout:(Some 0.5) ()
  in
  let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:8 () in
  check_int "all answered" 300 (Metrics.Sample.count r.Swala.Cluster_runner.response);
  let lossless =
    Swala.Cluster_runner.run (Swala.Config.make ~n_nodes:4 ()) ~trace
      ~n_streams:8 ()
  in
  check_bool "loss costs hits" true
    (r.Swala.Cluster_runner.hits <= lossless.Swala.Cluster_runner.hits)

(* ------------------------------------------------------------------ *)
(* The bytes a client reads: Response.to_wire of what Server.submit
   returns *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Bodies travel as descriptions; what a client reads must still be the
   script's rendering, however the result was served. *)
let test_reference_bytes () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg = Swala.Config.make ~n_nodes:2 () in
  let script = Option.get (Cgi.Registry.find_script registry "/cgi-bin/query") in
  let body =
    Cgi.Script.output_sized script ~key:"GET /cgi-bin/query?q=a&xb=5000&xd=1.5"
      ~bytes:5000
  in
  let expected =
    Printf.sprintf
      "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let got = ref [] in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        let ask node =
          let req = Http.Request.get "/cgi-bin/query?xd=1.5&q=a&xb=5000" in
          got :=
            Http.Response.to_wire (Swala.Server.submit cluster ~client:2 ~node req)
            :: !got
        in
        ask 0;
        ask 0;
        Sim.Engine.delay 0.1;
        ask 1)
  in
  let counter k =
    Metrics.Counter.get (Swala.Server.merged_counters cluster) k
  in
  check_int "executed once" 1 (counter Swala.Server.K.cgi_execs);
  check_int "local hit" 1 (counter Swala.Server.K.hit_local);
  check_int "remote hit" 1 (counter Swala.Server.K.hit_remote);
  match List.rev !got with
  | [ fresh; local; remote ] ->
      check_string "fresh execution" expected fresh;
      check_string "local hit" expected local;
      check_string "remote hit" expected remote
  | l -> Alcotest.failf "%d replies" (List.length l)

(* Error pages echo request text; it must arrive as text, not markup. *)
let test_404_escapes_path () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let resp = ref None in
  ignore
    (run_cluster_script ~cfg:(Swala.Config.make ()) ~registry (fun cluster ->
         let req = Http.Request.get "/a%3Cscript%3Ealert(1)%3C/script%3E" in
         resp := Some (Swala.Server.submit cluster ~client:1 ~node:0 req))
      : Swala.Server.cluster);
  let resp = Option.get !resp in
  check_int "404" 404 (Http.Status.code resp.Http.Response.status);
  let got = Http.Response.to_wire resp in
  check_bool "escaped" true
    (contains got "<p>/a&lt;script&gt;alert(1)&lt;/script&gt;</p>");
  check_bool "no markup" false (contains got "<script>");
  let page =
    Http.Response.error Http.Status.Not_found "/a<script>alert(1)</script>"
  in
  check_string "same page" (Http.Response.to_wire page) got;
  check_int "wire_size" (String.length got) (Http.Response.wire_size page)

(* ------------------------------------------------------------------ *)
(* New ablations: shapes *)

let test_ablation_protocol_shape () =
  let rows =
    Swala.Experiments.ablation_protocol ~latencies:[ 0.0002; 0.02 ]
      ~n_requests:300 ()
  in
  match rows with
  | [ lan; wan ] ->
      check_bool "LAN penalty negligible" true
        (Float.abs lan.Swala.Experiments.penalty < 0.01);
      check_bool "WAN penalty real" true
        (wan.Swala.Experiments.penalty > 0.01)
  | _ -> Alcotest.fail "two rows"

let test_ablation_routing_shape () =
  let _, rows = Swala.Experiments.ablation_routing ~nodes:4 () in
  check_int "8 combinations" 8 (List.length rows);
  Invariants.check_rows "routing ablation" rows;
  let hits p m = (List.assoc (p, m) rows).Swala.Cluster_runner.hits in
  let scattered = hits Swala.Router.Per_stream Swala.Config.Standalone in
  let affine = hits Swala.Router.Key_affinity Swala.Config.Standalone in
  let coop = hits Swala.Router.Per_stream Swala.Config.Cooperative in
  check_bool "affinity rescues standalone" true (affine > scattered + 50);
  check_bool "affine standalone ~ coop" true
    (float_of_int affine > 0.9 *. float_of_int coop)

let test_ablation_threshold_shape () =
  let rows =
    Swala.Experiments.ablation_threshold ~thresholds:[ 0.0; 4.0 ]
      ~capacities:[ 2000 ] ~n_requests:1_500 ()
  in
  Invariants.check_rows "threshold ablation" rows;
  match rows with
  | [ (_, all); (_, strict) ] ->
      let module R = Swala.Cluster_runner in
      let inserts r = Metrics.Counter.get r.R.counters Swala.Server.K.inserts in
      check_bool "caching everything beats caching almost nothing" true
        (R.mean_response all < R.mean_response strict);
      check_bool "higher threshold, fewer inserts" true
        (inserts strict < inserts all)
  | _ -> Alcotest.fail "two rows"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "extensions"
    [
      ( "rules",
        [
          Alcotest.test_case "empty defaults" `Quick test_rules_empty_defaults;
          Alcotest.test_case "basic parse" `Quick test_rules_parse_basic;
          Alcotest.test_case "longest prefix wins" `Quick test_rules_longest_prefix_wins;
          Alcotest.test_case "default directive" `Quick test_rules_default_directive;
          Alcotest.test_case "default ttl/threshold" `Quick test_rules_default_ttl_threshold;
          Alcotest.test_case "parse errors" `Quick test_rules_parse_errors;
          Alcotest.test_case "to_string roundtrip" `Quick test_rules_to_string_roundtrip;
          Alcotest.test_case "server integration" `Quick test_rules_server_integration;
          Alcotest.test_case "ttl override" `Quick test_rules_ttl_override;
          QCheck_alcotest.to_alcotest prop_rules_parse_total;
        ] );
      ( "store-bytes",
        [
          Alcotest.test_case "remove_matching" `Quick test_store_remove_matching;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "filemon index" `Quick test_filemon_index;
          Alcotest.test_case "invalidate by key" `Quick test_invalidate_key;
          Alcotest.test_case "invalidate script (all args)" `Quick
            test_invalidate_script_all_args;
          Alcotest.test_case "filemon on_change" `Quick test_filemon_on_change;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "strong: replicas consistent at reply" `Quick
            test_strong_consistency_visible_on_reply;
          Alcotest.test_case "weak: replicas lag at reply" `Quick
            test_weak_consistency_lags;
          Alcotest.test_case "strong vs weak in the runner" `Quick
            test_strong_consistency_runner;
        ] );
      ( "router",
        [
          Alcotest.test_case "per-stream" `Quick test_router_per_stream;
          Alcotest.test_case "round-robin cycles" `Quick test_router_round_robin;
          Alcotest.test_case "key affinity deterministic+canonical" `Quick
            test_router_key_affinity;
          Alcotest.test_case "least-active avoids busy node" `Quick
            test_router_least_active_prefers_idle;
          Alcotest.test_case "affinity lifts standalone hits" `Quick
            test_router_affinity_lifts_standalone;
        ] );
      ( "clf",
        [
          Alcotest.test_case "to_trace with filtering" `Quick test_clf_to_trace;
          Alcotest.test_case "default demand" `Quick test_clf_default_demand;
          Alcotest.test_case "custom cgi prefix" `Quick test_clf_custom_prefix;
          Alcotest.test_case "malformed lines" `Quick test_clf_errors;
          Alcotest.test_case "item_to_line roundtrip" `Quick
            test_clf_roundtrip_via_item_to_line;
          QCheck_alcotest.to_alcotest prop_clf_parse_line_total;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "fetch timeout falls back to exec" `Quick
            test_fetch_timeout_fallback;
          Alcotest.test_case "exhausted fetch purges its owner" `Quick
            test_exhausted_fetch_purges_owner;
          Alcotest.test_case "loss without timeout rejected" `Quick
            test_loss_requires_timeout;
          Alcotest.test_case "lossy cluster completes workload" `Quick
            test_lossy_cluster_completes_workload;
        ] );
      ( "wire",
        [
          Alcotest.test_case "CGI bytes = reference" `Quick
            test_reference_bytes;
          Alcotest.test_case "404 page escapes the path" `Quick
            test_404_escapes_path;
        ] );
      ( "new-ablations",
        [
          Alcotest.test_case "protocol penalty grows with latency" `Quick
            test_ablation_protocol_shape;
          Alcotest.test_case "routing rescues standalone" `Quick
            test_ablation_routing_shape;
          Alcotest.test_case "threshold trade-off" `Quick test_ablation_threshold_shape;
        ] );
    ]
