(* Tests for the fault-injection subsystem: the Sim.Fault plan itself
   (determinism, zero-cost zero profile, schedules), its wiring into the
   network and the server layer (timeout + retry + fallback, suspect-table
   purge, crash/restart), and the graceful-degradation guarantees. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let action_to_string = function
  | Sim.Fault.Deliver -> "deliver"
  | Sim.Fault.Drop -> "drop"

let check_action msg a b =
  Alcotest.(check string) msg (action_to_string a) (action_to_string b)

(* ------------------------------------------------------------------ *)
(* Profile validation *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_validate_rejects_bad_profiles () =
  expect_invalid "drop > 1" (fun () ->
      Sim.Fault.validate (Sim.Fault.make ~drop:1.5 ()));
  expect_invalid "zero mtbf" (fun () ->
      Sim.Fault.validate
        (Sim.Fault.make ~node:{ Sim.Fault.mtbf = 0.; mttr = 1. } ()));
  expect_invalid "overlapping schedule" (fun () ->
      Sim.Fault.validate
        (Sim.Fault.make ~node_schedules:[ (0, [ (1., 5.); (4., 6.) ]) ] ()));
  expect_invalid "inverted interval" (fun () ->
      Sim.Fault.validate
        (Sim.Fault.make ~node_schedules:[ (0, [ (5., 1.) ]) ] ()));
  expect_invalid "zero horizon" (fun () ->
      Sim.Fault.validate (Sim.Fault.make ~horizon:0. ()));
  Sim.Fault.validate Sim.Fault.none

(* The schedule generators step a clock up to the horizon, so a horizon
   or a mean step that keeps the clock from getting there is refused
   before anything is generated. An input that fails an earlier check
   keeps that check's message. *)
let test_validate_rejects_runaway_schedules () =
  let rejects msg p =
    Alcotest.check_raises msg (Invalid_argument ("Fault: " ^ msg)) (fun () ->
        Sim.Fault.validate p)
  in
  let node mtbf mttr = { Sim.Fault.mtbf; mttr } in
  let churn rate = Sim.Fault.churn ~rate () in
  rejects "horizon must be finite"
    (Sim.Fault.make ~node:(node 10. 1.) ~horizon:Float.infinity ());
  rejects "horizon must be finite"
    (Sim.Fault.make ~churn:(churn 0.3) ~horizon:Float.infinity ());
  rejects "horizon must be positive"
    (Sim.Fault.make ~node:(node 10. 1.) ~horizon:Float.nan ());
  rejects "node mtbf + mttr must advance the clock at the horizon"
    (Sim.Fault.make ~node:(node 1e-300 1e-300) ());
  rejects "churn interval 1/rate must advance the clock at the horizon"
    (Sim.Fault.make ~churn:(churn 1e300) ());
  rejects "churn interval 1/rate must advance the clock at the horizon"
    (Sim.Fault.make ~churn:(churn Float.infinity) ());
  rejects "churn rate must be positive"
    (Sim.Fault.make ~churn:(churn Float.nan) ());
  (* A finite, merely large rate x horizon is the caller's request. *)
  Sim.Fault.validate
    (Sim.Fault.make ~node:(node 1e-3 1e-3) ~churn:(churn 1e6) ())

(* ------------------------------------------------------------------ *)
(* The zero profile draws no random numbers *)

let test_zero_profile_draws_nothing () =
  let r1 = Sim.Rng.create 99 in
  let plan = Sim.Fault.create Sim.Fault.none ~rng:r1 ~nodes:4 in
  for i = 0 to 99 do
    check_action "deliver" Sim.Fault.Deliver
      (Sim.Fault.action plan ~src:(i mod 4) ~dst:((i + 1) mod 4)
         ~now:(float_of_int i))
  done;
  (* create splits one generator per node; nothing else may be drawn, so
     the next draw matches a fresh generator after four bare splits. *)
  let r2 = Sim.Rng.create 99 in
  for _ = 1 to 4 do
    ignore (Sim.Rng.split r2)
  done;
  check_float "rng untouched by delivery decisions" (Sim.Rng.float r2)
    (Sim.Rng.float r1);
  check_int "no drops" 0 (Sim.Fault.drops plan)

(* ------------------------------------------------------------------ *)
(* Same seed + profile -> same fault trace *)

let test_plan_deterministic () =
  let make () =
    Sim.Fault.create
      (Sim.Fault.make ~drop:0.3
         ~node:{ Sim.Fault.mtbf = 40.; mttr = 3. }
         ~horizon:200. ())
      ~rng:(Sim.Rng.create 7) ~nodes:3
  in
  let p1 = make () and p2 = make () in
  for node = 0 to 2 do
    let s1 = Sim.Fault.schedule p1 ~node and s2 = Sim.Fault.schedule p2 ~node in
    check_int "same crash count" (List.length s1) (List.length s2);
    List.iter2
      (fun (d1, u1) (d2, u2) ->
        check_float "same down_at" d1 d2;
        check_float "same up_at" u1 u2)
      s1 s2
  done;
  for i = 0 to 999 do
    let src = i mod 3 and dst = (i + 1) mod 3 and now = float_of_int i /. 7. in
    check_action "same fate"
      (Sim.Fault.action p1 ~src ~dst ~now)
      (Sim.Fault.action p2 ~src ~dst ~now)
  done;
  check_int "same drops" (Sim.Fault.drops p1) (Sim.Fault.drops p2);
  check_bool "trace is non-trivial" true (Sim.Fault.drops p1 > 0)

let test_stochastic_schedules_well_formed () =
  let plan =
    Sim.Fault.create
      (Sim.Fault.make ~node:{ Sim.Fault.mtbf = 10.; mttr = 1. } ~horizon:100. ())
      ~rng:(Sim.Rng.create 13) ~nodes:4
  in
  for node = 0 to 3 do
    let rec go prev_up = function
      | [] -> ()
      | (down_at, up_at) :: rest ->
          check_bool "ordered, inside horizon" true
            (down_at >= prev_up && down_at < 100. && up_at > down_at);
          go up_at rest
    in
    go 0. (Sim.Fault.schedule plan ~node)
  done;
  check_bool "some crash generated" true
    (List.exists
       (fun node -> Sim.Fault.schedule plan ~node <> [])
       [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Explicit schedules, node_down, drop accounting *)

let test_schedules_and_down_drops () =
  let plan =
    Sim.Fault.create
      (Sim.Fault.make ~node_schedules:[ (1, [ (2., 4.) ]) ] ())
      ~rng:(Sim.Rng.create 1) ~nodes:2
  in
  check_bool "up before" false (Sim.Fault.node_down plan ~node:1 ~now:1.9);
  check_bool "down inside" true (Sim.Fault.node_down plan ~node:1 ~now:3.);
  check_bool "up after" false (Sim.Fault.node_down plan ~node:1 ~now:4.);
  check_bool "clients never down" false
    (Sim.Fault.node_down plan ~node:7 ~now:3.);
  check_action "to down endpoint" Sim.Fault.Drop
    (Sim.Fault.action plan ~src:0 ~dst:1 ~now:3.);
  check_action "from down endpoint" Sim.Fault.Drop
    (Sim.Fault.action plan ~src:1 ~dst:0 ~now:3.);
  check_action "delivered once repaired" Sim.Fault.Deliver
    (Sim.Fault.action plan ~src:0 ~dst:1 ~now:4.5);
  check_int "down drops counted" 2 (Sim.Fault.drops_down plan);
  check_int "all drops were down drops" 2 (Sim.Fault.drops plan)

(* ------------------------------------------------------------------ *)
(* Cluster level: pay-for-what-you-use and determinism *)

let coop_trace ~seed ~n =
  Workload.Synthetic.coop ~seed ~n ~n_unique:(n * 7 / 10) ~n_hot:(n / 10) ()

let counters_equal msg a b =
  let names = Metrics.Counter.names a in
  Alcotest.(check (list string)) (msg ^ ": same counter set") names
    (Metrics.Counter.names b);
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "%s: counter %s" msg n)
        (Metrics.Counter.get a n) (Metrics.Counter.get b n))
    names

let test_zero_plan_equals_no_plan () =
  let trace = coop_trace ~seed:5 ~n:400 in
  let run fault =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative ~fault
         ~seed:5 ())
      ~trace ~n_streams:8 ()
  in
  let bare = run None and zero = run (Some Sim.Fault.none) in
  check_float "same makespan" bare.Swala.Cluster_runner.duration
    zero.Swala.Cluster_runner.duration;
  Alcotest.(check (float 0.))
    "same mean response"
    (Swala.Cluster_runner.mean_response bare)
    (Swala.Cluster_runner.mean_response zero);
  check_int "same hits" bare.Swala.Cluster_runner.hits
    zero.Swala.Cluster_runner.hits;
  check_int "nothing lost" 0 zero.Swala.Cluster_runner.net_lost;
  counters_equal "zero plan" bare.Swala.Cluster_runner.counters
    zero.Swala.Cluster_runner.counters

let test_fault_run_deterministic () =
  let trace = coop_trace ~seed:9 ~n:400 in
  let run () =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~fault:
           (Some
              (Sim.Fault.make ~drop:0.2
                 ~node:{ Sim.Fault.mtbf = 30.; mttr = 2. }
                 ~horizon:300. ()))
         ~fetch_timeout:(Some 0.5) ~fetch_retries:1 ~seed:9 ())
      ~trace ~n_streams:8 ~router:Swala.Router.Per_stream ()
  in
  let a = run () and b = run () in
  check_float "same makespan" a.Swala.Cluster_runner.duration
    b.Swala.Cluster_runner.duration;
  check_int "same losses" a.Swala.Cluster_runner.net_lost
    b.Swala.Cluster_runner.net_lost;
  counters_equal "fault replay" a.Swala.Cluster_runner.counters
    b.Swala.Cluster_runner.counters;
  check_bool "faults actually fired" true (a.Swala.Cluster_runner.net_lost > 0);
  check_int "every request answered" 400
    (Metrics.Sample.count a.Swala.Cluster_runner.response)

(* ------------------------------------------------------------------ *)
(* Server semantics under injected faults *)

let run_cluster_script ~cfg ~registry ?(n_client_endpoints = 2) script =
  let engine = Sim.Engine.create () in
  let cluster =
    Swala.Server.create_cluster engine cfg ~registry ~n_client_endpoints
  in
  Swala.Server.start cluster;
  Sim.Engine.spawn engine (fun () ->
      script cluster;
      Swala.Server.stop cluster);
  Sim.Engine.run engine;
  cluster

let query q = Http.Request.get (Printf.sprintf "/cgi-bin/query?q=%s&xd=0.2" q)

let test_retries_then_fallback () =
  (* Every protocol message is dropped by the plan: the fetch retries the
     configured number of times, then falls back to local execution. *)
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:2
      ~fault:(Some (Sim.Fault.make ~drop:1.0 ()))
      ~fetch_timeout:(Some 0.5) ~fetch_retries:2 ()
  in
  let status = ref 0 in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        Swala.Server.preload cluster ~node:0 (query "a") ~exec_time:0.2;
        (* The insert broadcast is dropped, so seed node 1's replica by
           hand to force it down the remote-fetch path. *)
        Cache.Directory.insert
          (Planes.directory cluster 1)
          ~node:0
          (Cache.Meta.make
             ~key:(Http.Request.cache_key (query "a"))
             ~owner:0 ~size:100 ~exec_time:0.2 ~created:0. ~expires:None);
        let resp = Swala.Server.submit cluster ~client:2 ~node:1 (query "a") in
        status := Http.Status.code resp.Http.Response.status)
  in
  check_int "still 200" 200 !status;
  let c = Swala.Server.merged_counters cluster in
  check_int "one timeout after retries" 1
    (Metrics.Counter.get c Swala.Server.K.fetch_timeouts);
  check_int "both retries performed" 2
    (Metrics.Counter.get c Swala.Server.K.fetch_retries);
  check_int "owner marked suspect" 1
    (Metrics.Counter.get c Swala.Server.K.dir_suspect_purged);
  check_int "fell back to local exec" 1
    (Metrics.Counter.get c Swala.Server.K.cgi_execs)

let test_crash_restart_lifecycle () =
  (* Node 0 is dead over (1s, 5s). While it is down: direct requests are
     refused 503, remote fetches for its keys time out once and purge its
     whole directory table (so later keys fall back without timing out),
     and after restart the node rejoins cold and re-announces. *)
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:2
      ~fault:(Some (Sim.Fault.make ~node_schedules:[ (0, [ (1., 5.) ]) ] ()))
      ~fetch_timeout:(Some 0.5) ()
  in
  let codes = ref [] in
  let submit cluster ~node q =
    let resp = Swala.Server.submit cluster ~client:2 ~node (query q) in
    codes := Http.Status.code resp.Http.Response.status :: !codes
  in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        (* Warm node 0 with two entries; the insert broadcasts give node 1
           directory replicas for both. *)
        Swala.Server.preload cluster ~node:0 (query "a") ~exec_time:0.2;
        Swala.Server.preload cluster ~node:0 (query "b") ~exec_time:0.2;
        Sim.Engine.delay 2.0;
        check_bool "node 0 is down" false
          (Swala.Server.node_up (Swala.Server.node cluster 0));
        submit cluster ~node:0 "a";
        (* 503: refused by the down node *)
        submit cluster ~node:1 "a";
        (* fetch times out, purges node 0's table, executes locally *)
        submit cluster ~node:1 "b";
        (* purged: straight to local execution, no second timeout *)
        Sim.Engine.delay 10.0;
        check_bool "node 0 restarted" true
          (Swala.Server.node_up (Swala.Server.node cluster 0));
        submit cluster ~node:0 "a";
        (* the crash emptied node 0's cache: this re-executes *)
        submit cluster ~node:0 "c";
        Sim.Engine.delay 0.5;
        (* node 0's insert broadcast re-announced "c"; node 1 fetches it *)
        submit cluster ~node:1 "c")
  in
  Alcotest.(check (list int))
    "status codes in order"
    [ 503; 200; 200; 200; 200; 200 ]
    (List.rev !codes);
  let c = Swala.Server.merged_counters cluster in
  let get = Metrics.Counter.get c in
  check_int "one crash" 1 (get Swala.Server.K.crashes);
  check_int "one restart" 1 (get Swala.Server.K.restarts);
  check_int "one 503" 1 (get Swala.Server.K.rejected_down);
  check_int "one fetch timeout" 1 (get Swala.Server.K.fetch_timeouts);
  check_int "both replica entries purged" 2
    (get Swala.Server.K.dir_suspect_purged);
  (* a (fallback at node 1), b (after purge), a again (cache lost in the
     crash) and c: four executions, plus the remote hit on re-announce. *)
  check_int "four executions" 4 (get Swala.Server.K.cgi_execs);
  check_int "re-announce produced a remote hit" 1
    (get Swala.Server.K.hit_remote)

let test_front_end_routes_around_crash () =
  (* With front-end routing, a crashed node costs hit ratio, never
     availability: all requests complete and none answer 503. *)
  let trace = coop_trace ~seed:21 ~n:400 in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
      ~fault:
        (Some (Sim.Fault.make ~node_schedules:[ (1, [ (0.5, 1e9) ]) ] ()))
      ~fetch_timeout:(Some 0.5) ~seed:21 ()
  in
  let r =
    Swala.Cluster_runner.run cfg ~trace ~n_streams:8
      ~router:Swala.Router.Per_stream ()
  in
  check_int "all answered" 400
    (Metrics.Sample.count r.Swala.Cluster_runner.response);
  check_int "no 503s" 0
    (Metrics.Counter.get r.Swala.Cluster_runner.counters
       Swala.Server.K.rejected_down)

let test_strong_consistency_rejects_faults () =
  Alcotest.check_raises "strong + faults rejected"
    (Invalid_argument
       "Config: the strong protocol has no ack retransmission; it tolerates \
        no lossy fault profile") (fun () ->
      Swala.Config.validate
        (Swala.Config.make ~consistency:Swala.Config.Strong
           ~fault:(Some (Sim.Fault.make ~drop:0.1 ()))
           ~fetch_timeout:(Some 0.5) ()))

let test_ablation_faults_shape () =
  (* Graceful degradation end to end: hits erode as faults intensify, but
     every cell of the sweep still answers everything. *)
  let _, rows =
    Swala.Experiments.ablation_faults ~seed:3 ~drops:[ 0.; 0.2 ]
      ~mtbfs:[ 0.; 30. ] ()
  in
  check_int "grid size" 4 (List.length rows);
  Invariants.check_rows "faults ablation" rows;
  let healthy = snd (List.hd rows) in
  check_int "healthy cell sees no faults" 0
    healthy.Swala.Cluster_runner.net_lost;
  List.iter
    (fun ((drop, mtbf), (r : Swala.Cluster_runner.result)) ->
      check_bool "hits bounded by healthy" true (r.hits <= healthy.hits);
      if drop > 0. || mtbf > 0. then
        check_bool "faults fired" true (r.net_lost > 0))
    rows

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validate rejects bad profiles" `Quick
            test_validate_rejects_bad_profiles;
          Alcotest.test_case "zero profile draws nothing" `Quick
            test_zero_profile_draws_nothing;
          Alcotest.test_case "same seed, same fault trace" `Quick
            test_plan_deterministic;
          Alcotest.test_case "stochastic schedules well-formed" `Quick
            test_stochastic_schedules_well_formed;
          Alcotest.test_case "explicit schedules and down drops" `Quick
            test_schedules_and_down_drops;
          Alcotest.test_case "validate rejects runaway schedules" `Quick
            test_validate_rejects_runaway_schedules;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "zero plan = no plan" `Quick
            test_zero_plan_equals_no_plan;
          Alcotest.test_case "fault replay deterministic" `Quick
            test_fault_run_deterministic;
          Alcotest.test_case "retries then local fallback" `Quick
            test_retries_then_fallback;
          Alcotest.test_case "crash/restart lifecycle" `Quick
            test_crash_restart_lifecycle;
          Alcotest.test_case "front-end routes around crash" `Quick
            test_front_end_routes_around_crash;
          Alcotest.test_case "strong consistency rejects faults" `Quick
            test_strong_consistency_rejects_faults;
          Alcotest.test_case "degradation sweep shape" `Quick
            test_ablation_faults_shape;
        ] );
    ]
