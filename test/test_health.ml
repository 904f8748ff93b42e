(* Tests for the online health monitor: each detector exercised in
   isolation with synthetic signal streams (edge triggering, hysteresis,
   warmup, baselines that refuse to learn from excursions), QCheck
   properties over the incident log, and the end-to-end correlation the
   tentpole promises — an injected Sim.Fault crash window produces
   incident records timestamped inside it, while the fault-free control
   run stays incident-free. *)

let count = Qcheck_count.or_default 200

module H = Metrics.Health

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let signals ?(hits = 0.) ?(lookups = 0.) ?(depth = 0.) ?(stale_n = 0.)
    ?(stale_s = 0.) () =
  {
    H.hits;
    lookups;
    queue_depth = depth;
    stale_count = stale_n;
    stale_total = stale_s;
  }

(* ------------------------------------------------------------------ *)
(* Detector units *)

let test_create_validates () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Health.create: interval must be > 0") (fun () ->
      ignore (H.create ~interval:0. () : H.t))

let test_slo_burn () =
  let h = H.create ~slo_target:0.1 ~interval:1.0 () in
  let feed n dt =
    for _ = 1 to n do
      H.observe_response h dt
    done
  in
  let tick now = H.tick h ~now (signals ()) in
  (* below min_window_obs the window is never judged, however bad *)
  feed 5 1.0;
  tick 1.0;
  check_int "thin window unjudged" 0 (H.n_incidents h);
  feed 20 0.01;
  tick 2.0;
  check_int "healthy window" 0 (H.n_incidents h);
  feed 20 0.5;
  tick 3.0;
  check_int "burn fires" 1 (H.n_incidents h);
  feed 20 0.5;
  tick 4.0;
  check_int "sustained excursion stays one incident" 1 (H.n_incidents h);
  feed 20 0.01;
  tick 5.0;
  feed 20 0.5;
  tick 6.0;
  check_int "recovery re-arms the detector" 2 (H.n_incidents h);
  match H.incidents h with
  | [ a; b ] ->
      Alcotest.(check string) "detector" "slo_burn" a.H.detector;
      check_float "stamped at the first bad window close" 3.0 a.H.at;
      check_float "second excursion's stamp" 6.0 b.H.at;
      check_bool "burn rate reported over threshold" true
        (a.H.value >= a.H.threshold)
  | _ -> Alcotest.fail "expected exactly two incidents"

let test_hit_ratio_collapse () =
  let h = H.create ~interval:1.0 () in
  let hits = ref 0. and looks = ref 0. in
  let window ~ratio now =
    looks := !looks +. 20.;
    hits := !hits +. (20. *. ratio);
    H.tick h ~now (signals ~hits:!hits ~lookups:!looks ())
  in
  (* warmup: the first windows build the EWMA without judging *)
  for i = 1 to 4 do
    window ~ratio:0.9 (float_of_int i)
  done;
  check_int "steady ratio stays quiet" 0 (H.n_incidents h);
  window ~ratio:0.1 5.;
  check_int "collapse fires" 1 (H.n_incidents h);
  window ~ratio:0.1 6.;
  check_int "one incident per excursion" 1 (H.n_incidents h);
  (* The baseline did not learn from the excursion, so after one healthy
     window the same collapse trips the detector again. *)
  window ~ratio:0.9 7.;
  window ~ratio:0.1 8.;
  check_int "baseline survived the excursion" 2 (H.n_incidents h);
  match H.incidents h with
  | i :: _ ->
      Alcotest.(check string) "detector" "hit_ratio_collapse" i.H.detector;
      check_float "stamped at collapse" 5.0 i.H.at
  | [] -> Alcotest.fail "expected incidents"

let test_queue_growth () =
  let h = H.create ~interval:1.0 () in
  let tick now depth = H.tick h ~now (signals ~depth ()) in
  tick 1. 2.;
  tick 2. 9.;
  check_int "two rising windows are not enough" 0 (H.n_incidents h);
  tick 3. 12.;
  check_int "three rising windows over min depth fire" 1 (H.n_incidents h);
  tick 4. 12.;
  tick 5. 13.;
  check_int "plateau resets the streak" 1 (H.n_incidents h);
  (match H.incidents h with
  | [ i ] ->
      Alcotest.(check string) "detector" "queue_growth" i.H.detector;
      check_float "stamped at the third window" 3.0 i.H.at
  | _ -> Alcotest.fail "expected one incident");
  (* growth below the depth floor is idle-cluster noise, not an incident *)
  let h2 = H.create ~interval:1.0 () in
  for i = 1 to 6 do
    H.tick h2 ~now:(float_of_int i) (signals ~depth:(float_of_int i) ())
  done;
  check_int "shallow backlog never fires" 0 (H.n_incidents h2)

let test_staleness_spike () =
  let h = H.create ~interval:1.0 () in
  let n = ref 0. and s = ref 0. in
  let window ~mean now =
    n := !n +. 20.;
    s := !s +. (20. *. mean);
    H.tick h ~now (signals ~stale_n:!n ~stale_s:!s ())
  in
  for i = 1 to 4 do
    window ~mean:0.1 (float_of_int i)
  done;
  check_int "steady ages stay quiet" 0 (H.n_incidents h);
  window ~mean:0.5 5.;
  check_int "3x age spike fires" 1 (H.n_incidents h);
  match H.incidents h with
  | [ i ] ->
      Alcotest.(check string) "detector" "staleness_spike" i.H.detector;
      check_float "stamped at the spike" 5.0 i.H.at
  | _ -> Alcotest.fail "expected one incident"

(* ------------------------------------------------------------------ *)
(* Incident-log properties *)

(* Edge triggering, stated as a property: however good and bad windows
   interleave, the incident count equals the number of bad runs. *)
let prop_one_incident_per_excursion =
  QCheck.Test.make ~count ~name:"one slo_burn incident per excursion"
    QCheck.(list_of_size Gen.(0 -- 60) bool)
    (fun windows ->
      let h = H.create ~slo_target:0.1 ~interval:1.0 () in
      let edges = ref 0 and prev = ref false in
      List.iteri
        (fun i bad ->
          for _ = 1 to 12 do
            H.observe_response h (if bad then 0.5 else 0.01)
          done;
          H.tick h ~now:(float_of_int (i + 1)) (signals ());
          if bad && not !prev then incr edges;
          prev := bad)
        windows;
      H.n_incidents h = !edges)

let prop_incidents_time_ordered =
  QCheck.Test.make ~count ~name:"incident log is strictly time-ordered"
    QCheck.(list_of_size Gen.(0 -- 80) (float_range 0. 20.))
    (fun depths ->
      let h = H.create ~interval:1.0 () in
      List.iteri
        (fun i d -> H.tick h ~now:(float_of_int (i + 1)) (signals ~depth:d ()))
        depths;
      let rec ordered = function
        | a :: (b :: _ as rest) -> a.H.at < b.H.at && ordered rest
        | _ -> true
      in
      ordered (H.incidents h)
      && H.n_incidents h = List.length (H.incidents h))

(* ------------------------------------------------------------------ *)
(* End to end: incidents correlate with the injected fault plan *)

let coop_trace ~seed ~n =
  Workload.Synthetic.coop ~seed ~n ~n_unique:(n * 7 / 10) ~n_hot:(n / 10) ()

(* Node 1 is dead over (down_at, up_at): remote fetches into it eat the
   0.5s timeout on top of service times that already graze the healthy
   maximum (~2.12s), so only fault-window responses blow past the 2.2s
   SLO target. The control run differs only in having no fault plan. *)
let down_at = 6.0
let up_at = 14.0
let interval = 3.0

let telemetry_run ~fault =
  let trace = coop_trace ~seed:11 ~n:400 in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative ~fault
      ~fetch_timeout:(Some 0.5) ~telemetry_interval:(Some interval)
      ~slo_target:(Some 2.2) ~seed:11 ()
  in
  Swala.Cluster_runner.run cfg ~trace ~n_streams:8
    ~router:Swala.Router.Per_stream ()

let test_fault_incident_correlation () =
  let faulted =
    telemetry_run
      ~fault:
        (Some (Sim.Fault.make ~node_schedules:[ (1, [ (down_at, up_at) ]) ] ()))
  in
  let control = telemetry_run ~fault:None in
  (match control.Swala.Cluster_runner.health with
  | None -> Alcotest.fail "control run lost its monitor"
  | Some h ->
      List.iter
        (fun i -> Printf.printf "control incident: %s at %g\n" i.H.detector i.H.at)
        (H.incidents h);
      check_int "fault-free control is incident-free" 0 (H.n_incidents h));
  match faulted.Swala.Cluster_runner.health with
  | None -> Alcotest.fail "faulted run lost its monitor"
  | Some h ->
      let incs = H.incidents h in
      check_bool "the crash produced incidents" true (incs <> []);
      (* Incidents are stamped at window close, so allow one telemetry
         window past repair: the window closing just after up_at still
         contains the in-flight timeouts. *)
      check_bool "an incident is stamped inside the fault window" true
        (List.exists
           (fun i -> i.H.at >= down_at && i.H.at <= up_at +. interval)
           incs)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "health"
    [
      ( "detectors",
        [
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "slo burn" `Quick test_slo_burn;
          Alcotest.test_case "hit-ratio collapse" `Quick
            test_hit_ratio_collapse;
          Alcotest.test_case "queue growth" `Quick test_queue_growth;
          Alcotest.test_case "staleness spike" `Quick test_staleness_spike;
        ] );
      qsuite "log-props"
        [ prop_one_incident_per_excursion; prop_incidents_time_ordered ];
      ( "fault-correlation",
        [
          Alcotest.test_case "incidents fall inside the fault window" `Slow
            test_fault_incident_correlation;
        ] );
    ]
