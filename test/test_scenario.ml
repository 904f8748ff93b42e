(* Tests for time-varying workload scenarios: the Scenario overlay module
   itself (phases, flash intensity, diurnal inversion, tier assignment),
   its byte-identity guarantee in the cluster runner, determinism of full
   scenario runs, conservation under rolling churn, and the flash-crowd x
   hotspot-replication integration. *)

module Scenario = Workload.Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float_eps eps = Alcotest.(check (float eps))

(* Each property names its own default count. *)
let count = Qcheck_count.or_default

let crowd ?(at = 10.) ?(duration = 10.) ?decay ?(fraction = 0.8) ?(keys = 8)
    () =
  Scenario.flash_crowd ~at ~duration ?decay ~fraction ~keys ()

(* ------------------------------------------------------------------ *)
(* Overlay construction and validation *)

let test_inert_scenario () =
  let sc = Scenario.make ~duration:30. () in
  check_float_eps 1e-9 "duration" 30. (Scenario.duration sc);
  check_bool "no flash" true (Scenario.flash sc = None);
  check_bool "no diurnal" true (Scenario.diurnal sc = None);
  check_int "no tier overlay" 0 (Array.length (Scenario.tiers sc));
  check_int "single implicit tier" 1 (Scenario.n_tiers sc);
  check_float_eps 1e-9 "intensity 0" 0. (Scenario.flash_intensity sc ~now:5.);
  check_float_eps 1e-9 "rate 1" 1. (Scenario.envelope_rate sc ~now:5.);
  check_int "no arrivals" 0 (Array.length (Scenario.arrival_times sc ~n:100));
  match Scenario.phases sc with
  | [ ("steady", a, b) ] ->
      check_float_eps 1e-9 "start" 0. a;
      check_float_eps 1e-9 "stop" 30. b
  | _ -> Alcotest.fail "single steady phase expected"

let test_validation_rejects () =
  let inv f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "duration <= 0" true (inv (fun () -> Scenario.make ~duration:0. ()));
  check_bool "negative onset" true
    (inv (fun () ->
         Scenario.make ~duration:10.
           ~flash:(Scenario.flash_crowd ~at:(-1.) ~duration:2. ()) ()));
  check_bool "fraction > 1" true
    (inv (fun () ->
         Scenario.make ~duration:10. ~flash:(crowd ~fraction:1.5 ()) ()));
  (* The Zipf head is built after validation, so the Scenario message
     wins. *)
  Alcotest.check_raises "zero keys"
    (Invalid_argument "Scenario: flash fc_keys must be >= 1") (fun () ->
      ignore (Scenario.make ~duration:10. ~flash:(crowd ~keys:0 ()) ()));
  check_bool "bad trough" true
    (inv (fun () ->
         Scenario.make ~duration:10.
           ~diurnal:(Scenario.Sinusoid { period = 10.; trough = 2. })
           ()));
  check_bool "negative tier weight" true
    (inv (fun () ->
         Scenario.make ~duration:10.
           ~tiers:[ Scenario.tier ~name:"x" ~rtt:0.01 ~weight:(-1.) ]
           ()))

(* An infinite run gives the diurnal pacing nothing to invert. A NaN or
   negative duration fails the positivity check first. *)
let test_validation_rejects_non_finite () =
  let rejects msg duration =
    Alcotest.check_raises msg (Invalid_argument ("Scenario: " ^ msg))
      (fun () ->
        ignore
          (Scenario.make ~duration
             ~diurnal:(Scenario.Sinusoid { period = 10.; trough = 0.5 })
             ()))
  in
  rejects "duration must be finite" Float.infinity;
  rejects "duration must be positive" Float.nan;
  rejects "duration must be positive" Float.neg_infinity

(* ------------------------------------------------------------------ *)
(* Phase schedule *)

let test_phases_flash () =
  let sc = Scenario.make ~duration:60. ~flash:(crowd ~at:10. ~duration:10. ()) () in
  (match Scenario.phases sc with
  | [ ("pre", a0, a1); ("crowd", b0, b1); ("decay", c0, c1); ("post", d0, d1) ]
    ->
      check_float_eps 1e-9 "pre start" 0. a0;
      check_float_eps 1e-9 "pre stop" 10. a1;
      check_float_eps 1e-9 "crowd" 10. b0;
      check_float_eps 1e-9 "crowd stop" 20. b1;
      check_float_eps 1e-9 "decay" 20. c0;
      check_float_eps 1e-9 "decay stop" 30. c1;
      check_float_eps 1e-9 "post" 30. d0;
      check_float_eps 1e-9 "post stop" 60. d1
  | _ -> Alcotest.fail "four phases expected");
  check_string "phase_of pre" "pre" (Scenario.phase_of sc ~now:0.);
  check_string "phase_of crowd" "crowd" (Scenario.phase_of sc ~now:10.);
  check_string "phase_of decay" "decay" (Scenario.phase_of sc ~now:25.);
  check_string "phase_of post" "post" (Scenario.phase_of sc ~now:59.);
  check_string "past end falls in last" "post" (Scenario.phase_of sc ~now:1e6)

let test_phases_zero_decay_window () =
  (* A crowd with a zero-length decay window: the decay phase vanishes and
     the tiling stays gap-free. *)
  let sc =
    Scenario.make ~duration:20. ~flash:(crowd ~at:5. ~duration:5. ~decay:0. ()) ()
  in
  (match Scenario.phases sc with
  | [ ("pre", _, _); ("crowd", _, b1); ("post", d0, _) ] ->
      check_float_eps 1e-9 "no gap" b1 d0
  | _ -> Alcotest.fail "three phases expected");
  check_float_eps 1e-9 "intensity drops instantly" 0.
    (Scenario.flash_intensity sc ~now:10.000001)

let prop_phases_tile =
  (* Whatever the crowd geometry, phases are nonempty, ordered, gap-free
     and exactly cover [0, duration]. *)
  QCheck.Test.make ~name:"phases tile [0,duration] with no gap/overlap"
    ~count:(count 200)
    QCheck.(
      quad (float_range 1. 100.) (float_range 0. 0.99) (float_range 0.1 60.)
        (float_range 0. 60.))
    (fun (duration, at_frac, cd, decay) ->
      let at = at_frac *. duration in
      let sc =
        Scenario.make ~duration ~flash:(crowd ~at ~duration:cd ~decay ()) ()
      in
      let ph = Scenario.phases sc in
      ph <> []
      && List.for_all (fun (_, a, b) -> b > a -. 1e-12) ph
      && (match List.hd ph with _, a, _ -> Float.abs a < 1e-9)
      && (match List.nth ph (List.length ph - 1) with
         | _, _, b -> Float.abs (b -. duration) < 1e-9)
      &&
      let rec contiguous = function
        | (_, _, b) :: ((_, a, _) :: _ as rest) ->
            Float.abs (b -. a) < 1e-9 && contiguous rest
        | _ -> true
      in
      contiguous ph)

(* ------------------------------------------------------------------ *)
(* Flash crowd *)

let prop_flash_decays_to_baseline =
  (* Intensity is the peak fraction inside the window, nonincreasing across
     the decay tail, and exactly zero once the decay completes — the
     distribution returns to baseline. *)
  QCheck.Test.make ~name:"flash intensity decays back to baseline"
    ~count:(count 200)
    QCheck.(
      pair (float_range 0.1 1.) (pair (float_range 0.5 20.) (float_range 0. 20.)))
    (fun (fraction, (cd, decay)) ->
      let at = 5. in
      let sc =
        Scenario.make ~duration:(at +. cd +. decay +. 10.)
          ~flash:(crowd ~at ~duration:cd ~decay ~fraction ())
          ()
      in
      let i t = Scenario.flash_intensity sc ~now:t in
      Float.abs (i (at +. (cd /. 2.)) -. fraction) < 1e-9
      && i (at -. 0.001) = 0.
      && i (at +. cd +. decay +. 0.001) = 0.
      && i (at +. cd +. (decay /. 3.)) >= i (at +. cd +. (decay /. 2.)) -. 1e-9
      && i 1e9 = 0.)

let test_rewrite_only_in_window () =
  let sc = Scenario.make ~duration:40. ~flash:(crowd ~at:10. ~duration:10. ~fraction:1.0 ()) () in
  let rng = Sim.Rng.create 5 in
  let item =
    {
      Workload.Trace.id = 3;
      kind =
        Workload.Trace.Cgi
          { script = "/cgi-bin/q"; args = [ ("q", "base") ]; demand = 0.5; out_bytes = 64 };
    }
  in
  check_bool "before onset untouched" true
    (Scenario.rewrite sc ~rng ~now:2. item = None);
  (match Scenario.rewrite sc ~rng ~now:12. item with
  | Some item' ->
      check_int "id preserved" 3 item'.Workload.Trace.id;
      (match item'.Workload.Trace.kind with
      | Workload.Trace.Cgi { args; _ } ->
          let q = List.assoc "q" args in
          check_bool "crowd query" true
            (String.starts_with ~prefix:"crowd" q)
      | Workload.Trace.File _ -> Alcotest.fail "a CGI must stay a CGI")
  | None -> Alcotest.fail "fraction 1.0 must redirect");
  let f = { Workload.Trace.id = 4; kind = Workload.Trace.File { path = "/a"; bytes = 10 } } in
  check_bool "files never redirected" true
    (Scenario.rewrite sc ~rng ~now:12. f = None)

let test_rewrite_deterministic () =
  let sc = Scenario.make ~duration:40. ~flash:(crowd ~at:0. ~duration:40. ~fraction:0.5 ()) () in
  let item =
    {
      Workload.Trace.id = 0;
      kind =
        Workload.Trace.Cgi
          { script = "/cgi-bin/q"; args = [ ("q", "k") ]; demand = 0.5; out_bytes = 64 };
    }
  in
  let replay seed =
    let rng = Sim.Rng.create seed in
    List.init 200 (fun i ->
        match Scenario.rewrite sc ~rng ~now:(float_of_int i /. 10.) item with
        | Some it -> Workload.Trace.key it
        | None -> "-")
  in
  check_bool "same seed same redirections" true (replay 9 = replay 9);
  check_bool "different seed differs" true (replay 9 <> replay 10)

(* [Scenario.rewrite] as first written: the crowd query's arguments
   formatted by [Printf] on every rewrite. The library builds each
   rank's arguments once, in [Scenario.make]; the rewritten items must
   be the same. *)
let rewrite_ref sc ~zipf ~rng ~now (item : Workload.Trace.item) =
  let p = Scenario.flash_intensity sc ~now in
  if p <= 0. then None
  else
    match (item.kind, Scenario.flash sc) with
    | Workload.Trace.Cgi _, Some f ->
        if Sim.Rng.float rng < p then begin
          let rank = Sim.Dist.Discrete.draw zipf rng in
          let demand = f.fc_demand in
          Some
            {
              Workload.Trace.id = item.id;
              kind =
                Workload.Trace.Cgi
                  {
                    script = "/cgi-bin/query";
                    args =
                      [
                        ("q", Printf.sprintf "crowd%d" rank);
                        ("xd", Printf.sprintf "%.9g" demand);
                        ("xb", string_of_int f.fc_out_bytes);
                      ];
                    demand;
                    out_bytes = f.fc_out_bytes;
                  };
            }
        end
        else None
    | _ -> None

let test_rewrite_matches_reference () =
  List.iter
    (fun (keys, zipf_s, demand, out_bytes, seed) ->
      let f =
        Scenario.flash_crowd ~at:5. ~duration:10. ~decay:10. ~fraction:0.9
          ~keys ~zipf_s ~demand ~out_bytes ()
      in
      let sc = Scenario.make ~duration:40. ~flash:f () in
      let zipf = Sim.Dist.zipf ~n:keys ~s:zipf_s in
      let trace =
        Workload.Synthetic.adl_scaled ~seed ~n:400
        @ Workload.Synthetic.coop ~seed ~n:400 ~n_unique:100 ()
      in
      let rng = Sim.Rng.create seed and rng_ref = Sim.Rng.create seed in
      List.iteri
        (fun i item ->
          let now = float_of_int i *. 0.05 in
          let want = rewrite_ref sc ~zipf ~rng:rng_ref ~now item in
          if Scenario.rewrite sc ~rng ~now item <> want then
            Alcotest.failf "keys %d seed %d: rewrite of item %d differs" keys
              seed i)
        trace)
    [
      (8, 1.0, 1.0, 4096, 1);
      (1, 0.0, 0.02, 0, 2);
      (64, 1.3, 1. /. 3., 8192, 3);
      (1000, 0.8, 2.5e-7, 123, 4);
    ]

(* ------------------------------------------------------------------ *)
(* Diurnal envelope *)

let prop_arrivals_shape =
  (* n nondecreasing release times inside [0, duration), for both envelope
     families. *)
  QCheck.Test.make ~name:"arrival times nondecreasing in [0,duration)"
    ~count:(count 100)
    QCheck.(pair (int_range 1 400) (pair (float_range 5. 100.) (float_range 0. 1.)))
    (fun (n, (duration, trough)) ->
      let sc =
        Scenario.make ~duration
          ~diurnal:(Scenario.Sinusoid { period = duration; trough })
          ()
      in
      let a = Scenario.arrival_times sc ~n in
      Array.length a = n
      && Array.for_all (fun t -> t >= 0. && t < duration +. 1e-9) a
      &&
      let ok = ref true in
      for i = 1 to n - 1 do
        if a.(i) < a.(i - 1) -. 1e-9 then ok := false
      done;
      !ok)

let prop_envelope_integrates_to_count =
  (* Quantile inversion: the number of arrivals in any prefix [0,t] matches
     the integral of the normalised envelope up to t, within one request. *)
  QCheck.Test.make ~name:"envelope integrates to request count (+-1)"
    ~count:(count 50)
    QCheck.(pair (int_range 50 500) (float_range 0.05 1.))
    (fun (n, trough) ->
      let duration = 50. in
      let sc =
        Scenario.make ~duration
          ~diurnal:(Scenario.Sinusoid { period = duration; trough })
          ()
      in
      let a = Scenario.arrival_times sc ~n in
      (* integral of rate over [0,t] by fine trapezoid *)
      let integral t =
        let steps = 2000 in
        let h = t /. float_of_int steps in
        let acc = ref 0. in
        for i = 0 to steps - 1 do
          let x0 = float_of_int i *. h and x1 = float_of_int (i + 1) *. h in
          acc :=
            !acc
            +. (h /. 2.)
               *. (Scenario.envelope_rate sc ~now:x0
                  +. Scenario.envelope_rate sc ~now:x1)
        done;
        !acc
      in
      let total = integral duration in
      List.for_all
        (fun frac ->
          let t = frac *. duration in
          let expected = float_of_int n *. integral t /. total in
          let got =
            Array.fold_left (fun c x -> if x <= t then c + 1 else c) 0 a
          in
          Float.abs (float_of_int got -. expected) <= 1.5)
        [ 0.25; 0.5; 0.75; 1.0 ])

(* ------------------------------------------------------------------ *)
(* Geo tiers *)

let test_tier_assignment_proportional () =
  let sc =
    Scenario.make ~duration:10.
      ~tiers:
        [
          Scenario.tier ~name:"metro" ~rtt:0.002 ~weight:6.;
          Scenario.tier ~name:"regional" ~rtt:0.03 ~weight:3.;
          Scenario.tier ~name:"far" ~rtt:0.12 ~weight:1.;
        ]
      ()
  in
  check_int "three tiers" 3 (Scenario.n_tiers sc);
  let counts = Array.make 3 0 in
  let n_streams = 40 in
  for s = 0 to n_streams - 1 do
    let t = Scenario.tier_of_stream sc ~n_streams ~stream:s in
    counts.(t) <- counts.(t) + 1
  done;
  check_int "metro gets 6/10" 24 counts.(0);
  check_int "regional gets 3/10" 12 counts.(1);
  check_int "far gets 1/10" 4 counts.(2);
  check_float_eps 1e-9 "half rtt" 0.06 (Scenario.tier_extra_latency sc 2);
  check_string "name" "far" (Scenario.tier_name sc 2)

let test_tier_every_stream_assigned () =
  let sc =
    Scenario.make ~duration:10.
      ~tiers:
        [
          Scenario.tier ~name:"a" ~rtt:0.01 ~weight:1.;
          Scenario.tier ~name:"b" ~rtt:0.02 ~weight:1.;
        ]
      ()
  in
  (* Fewer streams than tiers and odd splits still map every stream. *)
  List.iter
    (fun n_streams ->
      for s = 0 to n_streams - 1 do
        let t = Scenario.tier_of_stream sc ~n_streams ~stream:s in
        check_bool "in range" true (t >= 0 && t < 2)
      done)
    [ 1; 2; 3; 7 ]

(* ------------------------------------------------------------------ *)
(* Cluster-runner integration *)

let coop_trace ~seed ~n =
  Workload.Synthetic.coop ~seed ~n ~n_unique:(max 1 (n / 4)) ~n_hot:12
    ~zipf_s:1.1 ~demand:0.01 ()

let run ?scenario ?fault ?(seed = 11) ?(n = 400) ?(nodes = 3) ?fetch_timeout
    ?(dir_mode = Swala.Config.Replicated) ?(hotspot_threshold = 0.)
    () =
  let cfg =
    Swala.Config.make ~n_nodes:nodes ~cache_mode:Swala.Config.Cooperative
      ~cache_threshold:0.001 ~dir_mode ~hotspot_threshold
      ~hotspot_window:1.0 ~hotspot_replicas:2
      ?scenario:(Option.map Option.some scenario)
      ?fault:(Option.map Option.some fault)
      ?fetch_timeout:(Option.map Option.some fetch_timeout)
      ~seed ()
  in
  Swala.Cluster_runner.run cfg ~trace:(coop_trace ~seed ~n)
    ~n_streams:(2 * nodes) ~router:Swala.Router.Per_stream ()

let results_identical (a : Swala.Cluster_runner.result)
    (b : Swala.Cluster_runner.result) =
  Metrics.Counter.equal a.counters b.counters
  && Metrics.Sample.values a.response = Metrics.Sample.values b.response
  && a.hits = b.hits && a.duration = b.duration && a.net_lost = b.net_lost

let test_inert_scenario_byte_identical () =
  (* A configured-but-empty scenario must not perturb the simulation at
     all: same counters, same response times, same makespan as no
     scenario. This is the byte-identity guarantee the salted scenario RNG
     root exists for. *)
  let base = run () in
  let inert = run ~scenario:(Scenario.make ~duration:60. ()) () in
  check_bool "counters identical" true
    (Metrics.Counter.equal base.counters inert.counters);
  check_bool "responses identical" true
    (Metrics.Sample.values base.response = Metrics.Sample.values inert.response);
  check_float_eps 0. "makespan identical" base.duration inert.duration;
  check_bool "no scenario counters appear" true
    (List.for_all
       (fun n ->
         (not (String.length n >= 5 && String.sub n 0 5 = "tier_"))
         && n <> "scenario_flash_redirects")
       (Metrics.Counter.names inert.counters))

let test_scenario_run_deterministic () =
  let scenario () =
    Scenario.make ~duration:8.
      ~flash:(crowd ~at:1. ~duration:2. ~decay:2. ())
      ~diurnal:(Scenario.Sinusoid { period = 8.; trough = 0.3 })
      ~tiers:
        [
          Scenario.tier ~name:"near" ~rtt:0.002 ~weight:3.;
          Scenario.tier ~name:"far" ~rtt:0.05 ~weight:1.;
        ]
      ()
  in
  let fault () = Sim.Fault.make ~churn:(Sim.Fault.churn ~rate:0.5 ~downtime:0.5 ()) ~horizon:30. () in
  let go () =
    run ~scenario:(scenario ()) ~fault:(fault ()) ~fetch_timeout:0.2 ()
  in
  let a = go () and b = go () in
  check_bool "full scenario run replays identically" true (results_identical a b);
  check_bool "crowd redirections happened" true
    (Metrics.Counter.get a.counters "scenario_flash_redirects" > 0);
  check_int "tier counters cover every request" a.n_requests
    (Metrics.Counter.get a.counters "tier_near_requests"
    + Metrics.Counter.get a.counters "tier_far_requests");
  (* different seed => different run *)
  let c =
    run ~scenario:(scenario ()) ~fault:(fault ()) ~fetch_timeout:0.2 ~seed:12 ()
  in
  check_bool "seed matters" false (results_identical a c)

let test_churn_conservation_sweep () =
  (* 50 seeds of rolling churn: every request submitted comes back (the
     closed loop conserves requests — a crashed node answers 503, not
     silence), crashes match restarts within the in-flight tail, and the
     response sample holds exactly n observations. *)
  let total_crashes = ref 0 in
  for seed = 1 to 50 do
    let fault =
      Sim.Fault.make
        ~churn:
          (Sim.Fault.churn ~rate:2.0 ~downtime:0.3 ~poisson:(seed mod 2 = 0) ())
        ~horizon:60. ()
    in
    let r = run ~fault ~fetch_timeout:0.15 ~seed ~n:150 () in
    check_int
      (Printf.sprintf "seed %d: all responses observed" seed)
      150
      (Metrics.Sample.count r.response);
    let crashes = Metrics.Counter.get r.counters Swala.Server.K.crashes in
    let restarts = Metrics.Counter.get r.counters Swala.Server.K.restarts in
    total_crashes := !total_crashes + crashes;
    (* a node holds at most one pending restart when the run drains *)
    check_bool
      (Printf.sprintf "seed %d: restarts track crashes" seed)
      true
      (restarts <= crashes && crashes - restarts <= 3)
  done;
  check_bool "churn induced crashes across the sweep" true (!total_crashes > 0)

let test_flash_crowd_hotspot_integration () =
  (* Sharded plane + hotspot replication under a flash crowd: the crowd
     head concentrates lookups on a few shard homes, which must promote
     (replicate) the hot keys during the crowd and demote them after the
     decay returns traffic to baseline. *)
  let scenario =
    Scenario.make ~duration:12.
      ~flash:(crowd ~at:1. ~duration:4. ~decay:2. ~fraction:0.9 ~keys:4 ())
      ()
  in
  let r =
    run ~scenario ~seed:21 ~n:900 ~nodes:4 ~dir_mode:Swala.Config.Sharded
      ~hotspot_threshold:1.0 ()
  in
  let get = Metrics.Counter.get r.counters in
  check_bool "crowd redirected traffic" true
    (get "scenario_flash_redirects" > 100);
  check_bool "crowd promoted hot keys" true
    (get Swala.Server.K.hotspot_promotions > 0);
  check_bool "replicas pushed to successors" true
    (get Swala.Server.K.hotspot_replica_pushes > 0);
  check_bool "decay demoted them again" true
    (get Swala.Server.K.hotspot_demotions > 0);
  check_bool "cooperation still effective" true (r.hit_ratio > 0.3)

let test_geo_tiers_slow_far_clients () =
  let scenario =
    Scenario.make ~duration:10.
      ~tiers:
        [
          Scenario.tier ~name:"near" ~rtt:0.001 ~weight:1.;
          Scenario.tier ~name:"far" ~rtt:0.2 ~weight:1.;
        ]
      ()
  in
  let r = run ~scenario ~seed:31 () in
  match r.tier_response with
  | [ ("near", near); ("far", far) ] ->
      check_bool "both tiers observed traffic" true
        (Metrics.Sample.count near > 0 && Metrics.Sample.count far > 0);
      (* Every far response carries >= one extra RTT (0.2 s) over the wire. *)
      check_bool "far tier at least an RTT slower" true
        (Metrics.Sample.mean far >= Metrics.Sample.mean near +. 0.19)
  | other ->
      Alcotest.failf "two tier samples expected, got %d" (List.length other)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "scenario"
    [
      ( "overlays",
        [
          Alcotest.test_case "inert scenario" `Quick test_inert_scenario;
          Alcotest.test_case "validation rejects" `Quick test_validation_rejects;
          Alcotest.test_case "non-finite duration rejected" `Quick
            test_validation_rejects_non_finite;
        ] );
      ( "phases",
        [
          Alcotest.test_case "flash phase schedule" `Quick test_phases_flash;
          Alcotest.test_case "zero-decay window" `Quick
            test_phases_zero_decay_window;
        ] );
      qsuite "phase-props" [ prop_phases_tile ];
      ( "flash",
        [
          Alcotest.test_case "rewrite only in window" `Quick
            test_rewrite_only_in_window;
          Alcotest.test_case "rewrite deterministic" `Quick
            test_rewrite_deterministic;
          Alcotest.test_case "rewrite matches the Printf-built reference"
            `Quick test_rewrite_matches_reference;
        ] );
      qsuite "flash-props" [ prop_flash_decays_to_baseline ];
      qsuite "diurnal-props"
        [ prop_arrivals_shape; prop_envelope_integrates_to_count ];
      ( "tiers",
        [
          Alcotest.test_case "proportional assignment" `Quick
            test_tier_assignment_proportional;
          Alcotest.test_case "every stream assigned" `Quick
            test_tier_every_stream_assigned;
        ] );
      ( "runner",
        [
          Alcotest.test_case "inert scenario byte-identical" `Quick
            test_inert_scenario_byte_identical;
          Alcotest.test_case "scenario run deterministic" `Quick
            test_scenario_run_deterministic;
          Alcotest.test_case "churn conservation, 50 seeds" `Slow
            test_churn_conservation_sweep;
          Alcotest.test_case "flash crowd x hotspot replication" `Quick
            test_flash_crowd_hotspot_integration;
          Alcotest.test_case "geo tiers slow far clients" `Quick
            test_geo_tiers_slow_far_clients;
        ] );
    ]
