(* Tests for the adaptive-freshness plane: the Cache.Freshness controller
   (clamping, monotonicity, TTL-layer precedence), the staleness bound a
   TTL'd store actually enforces, the expiry boundary instants in Meta
   and Lookup_cache, config validation, fixed-mode neutrality (a run with
   the plane off must reproduce the pre-freshness output exactly), a
   50-seed determinism sweep with the controller and refresh daemon on,
   and refresh-daemon effectiveness. *)

let count = Qcheck_count.or_default 200

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let meta ?(owner = 0) ?(size = 100) ?(exec = 0.5) ?(created = 0.) ?expires key
    =
  Cache.Meta.make ~key ~owner ~size ~exec_time:exec ~created ~expires

let fresh ?(min_ttl = 0.25) ?(max_ttl = 120.) ?(penalty = 0.01)
    ?(window = 2.) () =
  Cache.Freshness.create ~min_ttl ~max_ttl ~penalty ~window ()

(* ------------------------------------------------------------------ *)
(* Controller properties *)

(* An arbitrary access/insert history for one key: (at, is_insert) pairs
   with bounded spacing, replayed in time order. *)
let history_gen =
  QCheck.Gen.(
    list_size (0 -- 40)
      (pair (float_bound_exclusive 10.) (frequency [ (3, return false); (1, return true) ])))

let history_arb =
  QCheck.make
    ~print:(fun h ->
      String.concat ";"
        (List.map
           (fun (at, ins) -> Printf.sprintf "%.3f%s" at (if ins then "!" else ""))
           h))
    history_gen

let replay_history f key history =
  List.iter
    (fun (at, is_insert) ->
      if is_insert then Cache.Freshness.observe_insert f ~now:at ~cost:0.05 key
      else Cache.Freshness.observe_access f ~now:at key)
    (List.sort (fun (a, _) (b, _) -> Float.compare a b) history)

let ttl_clamped =
  QCheck.Test.make ~name:"ttl always lands in [min_ttl, max_ttl]" ~count
    QCheck.(
      triple history_arb
        (oneofl [ 1e-6; 0.001; 0.05; 0.5; 5.; 500. ])
        (float_bound_exclusive 10.))
    (fun (history, cost, at) ->
      let f = fresh () in
      replay_history f "k" history;
      let ttl = Cache.Freshness.ttl f ~now:(10. +. at) ~cost "k" in
      ttl >= Cache.Freshness.min_ttl f && ttl <= Cache.Freshness.max_ttl f)

let ttl_monotone_cost =
  QCheck.Test.make ~name:"ttl is nondecreasing in recompute cost" ~count
    QCheck.(
      triple history_arb (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (history, c1, c2) ->
      let lo = Float.min c1 c2 +. 1e-6 and hi = Float.max c1 c2 +. 1e-6 in
      (* Same history through two controllers so the cost EWMAs match. *)
      let fa = fresh () and fb = fresh () in
      replay_history fa "k" history;
      replay_history fb "k" history;
      Cache.Freshness.ttl fa ~now:11. ~cost:lo "k"
      <= Cache.Freshness.ttl fb ~now:11. ~cost:hi "k")

let ttl_monotone_penalty =
  QCheck.Test.make ~name:"ttl is nonincreasing in the staleness penalty"
    ~count
    QCheck.(
      triple history_arb (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (history, p1, p2) ->
      let lo = Float.min p1 p2 +. 1e-6 and hi = Float.max p1 p2 +. 1e-6 in
      let fa = fresh ~penalty:lo () and fb = fresh ~penalty:hi () in
      replay_history fa "k" history;
      replay_history fb "k" history;
      Cache.Freshness.ttl fa ~now:11. ~cost:0.05 "k"
      >= Cache.Freshness.ttl fb ~now:11. ~cost:0.05 "k")

let ttl_monotone_rate =
  QCheck.Test.make ~name:"ttl is nonincreasing in the access rate" ~count
    QCheck.(pair history_arb (int_range 1 30))
    (fun (history, extra) ->
      (* B sees the same history plus [extra] more accesses inside the
         current window: its rate estimate can only be higher, so its
         TTL can only be shorter. *)
      let fa = fresh () and fb = fresh () in
      replay_history fa "k" history;
      replay_history fb "k" history;
      for _ = 1 to extra do
        Cache.Freshness.observe_access fb ~now:10.5 "k"
      done;
      Cache.Freshness.ttl fa ~now:11. ~cost:0.05 "k"
      >= Cache.Freshness.ttl fb ~now:11. ~cost:0.05 "k")

let test_sweep_drops_cold () =
  let f = fresh ~window:2. () in
  Cache.Freshness.observe_access f ~now:1. "cold";
  Cache.Freshness.observe_access f ~now:10. "hot";
  check_int "both tracked" 2 (Cache.Freshness.tracked f);
  let dropped = Cache.Freshness.sweep f ~now:10.5 in
  check_int "cold dropped" 1 dropped;
  check_int "hot kept" 1 (Cache.Freshness.tracked f)

(* ------------------------------------------------------------------ *)
(* TTL-layer precedence *)

let opt_ttl_gen =
  QCheck.Gen.(
    oneof [ return None; map (fun v -> Some (v +. 0.1)) (float_bound_exclusive 60.) ])

let opt_ttl_arb =
  QCheck.make
    ~print:(function None -> "None" | Some v -> Printf.sprintf "Some %.3f" v)
    opt_ttl_gen

let effective_ttl_precedence =
  QCheck.Test.make
    ~name:"effective_ttl: rule beats script beats default, None iff all None"
    ~count
    QCheck.(triple opt_ttl_arb opt_ttl_arb opt_ttl_arb)
    (fun (rule, script, default) ->
      let r = Cache.Freshness.effective_ttl ~rule ~script ~default in
      match (rule, script, default) with
      | Some v, _, _ -> r = Some v
      | None, Some v, _ -> r = Some v
      | None, None, d -> r = d)

(* ------------------------------------------------------------------ *)
(* Staleness bound at the store *)

(* Whatever TTL an entry was inserted with, a hit can only be served at
   an age strictly below it: [Meta.expired] is [now >= expires], so the
   expiry instant itself already misses. Random op sequences over a
   TTL'd store must never produce a hit at or past its TTL. *)
type sop = SInsert of int * float | SAdvance of float | SLookup of int

let sop_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2
            (fun k ttl -> SInsert (k, ttl))
            (int_range 0 5)
            (oneofl [ 0.5; 1.0; 2.0; 8.0 ]) );
        (2, map (fun dt -> SAdvance dt) (float_bound_exclusive 1.5));
        (3, map (fun k -> SLookup k) (int_range 0 5));
      ])

let sops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | SInsert (k, ttl) -> Printf.sprintf "I(%d,%g)" k ttl
             | SAdvance dt -> Printf.sprintf "A(%g)" dt
             | SLookup k -> Printf.sprintf "L(%d)" k)
           ops))
    QCheck.Gen.(list_size (1 -- 80) sop_gen)

let staleness_bound =
  QCheck.Test.make ~name:"a hit's age is strictly below its entry's TTL"
    ~count sops_arb
    (fun ops ->
      let clock = ref 0. in
      let store =
        Cache.Store.create ~capacity:8 ~policy:Cache.Policy.Lru
          ~clock:(fun () -> !clock)
          ()
      in
      List.iter
        (function
          | SInsert (k, ttl) ->
              let key = Printf.sprintf "k%d" k in
              ignore
                (Cache.Store.insert store
                   (meta ~created:!clock ~expires:(!clock +. ttl) key)
                   "body")
          | SAdvance dt -> clock := !clock +. dt
          | SLookup k -> (
              match Cache.Store.lookup store (Printf.sprintf "k%d" k) with
              | None -> ()
              | Some e -> (
                  let m = e.Cache.Store.meta in
                  let age = Cache.Meta.age m ~now:!clock in
                  match m.Cache.Meta.expires with
                  | None -> ()
                  | Some ex ->
                      let ttl = ex -. m.Cache.Meta.created in
                      if age >= ttl then
                        QCheck.Test.fail_reportf
                          "hit at age %.6f >= ttl %.6f" age ttl)))
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Boundary instants *)

let test_meta_expiry_instant () =
  let m = meta ~created:0. ~expires:10. "k" in
  check_bool "just before" false (Cache.Meta.expired m ~now:9.999999);
  check_bool "at the instant: already stale" true
    (Cache.Meta.expired m ~now:10.);
  Alcotest.(check (float 1e-9)) "age" 10. (Cache.Meta.age m ~now:10.);
  Alcotest.(check (float 1e-9)) "cost is exec_time" 0.5 (Cache.Meta.cost m)

(* The store serves its last hit strictly inside the TTL and misses at
   the expiry instant exactly. *)
let test_store_expiry_instant () =
  let clock = ref 0. in
  let store =
    Cache.Store.create ~capacity:4 ~policy:Cache.Policy.Lru
      ~clock:(fun () -> !clock)
      ()
  in
  ignore (Cache.Store.insert store (meta ~created:0. ~expires:5. "k") "b");
  clock := 4.999999;
  check_bool "hit inside ttl" true (Cache.Store.lookup store "k" <> None);
  clock := 5.;
  check_bool "miss at the expiry instant" true
    (Cache.Store.lookup store "k" = None)

(* Lookup_cache trusts entries strictly before [until] ([now < until]):
   at the boundary the verdict is already Unknown, and a positive entry
   dies with its meta even inside the TTL window. *)
let test_lookup_cache_until_edge () =
  let lc = Cache.Lookup_cache.create ~capacity:8 ~pos_ttl:5. ~neg_ttl:2. in
  Cache.Lookup_cache.note_pos lc ~now:0. (meta ~owner:3 "k");
  (match Cache.Lookup_cache.find lc ~now:4.999999 "k" with
  | Cache.Lookup_cache.Hit m -> check_int "owner" 3 m.Cache.Meta.owner
  | _ -> Alcotest.fail "expected Hit inside the window");
  (match Cache.Lookup_cache.find lc ~now:5. "k" with
  | Cache.Lookup_cache.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown at the boundary instant");
  Cache.Lookup_cache.note_neg lc ~now:10. "n";
  (match Cache.Lookup_cache.find lc ~now:12. "n" with
  | Cache.Lookup_cache.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown at the negative boundary");
  (* Positive entry whose meta expires before the lookup-cache TTL:
     the meta's own expiry wins. *)
  Cache.Lookup_cache.note_pos lc ~now:20. (meta ~created:20. ~expires:22. "e");
  match Cache.Lookup_cache.find lc ~now:22. "e" with
  | Cache.Lookup_cache.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown once the meta itself expired"

(* ------------------------------------------------------------------ *)
(* Config validation *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_config_validation () =
  let make = Swala.Config.make in
  expect_invalid "min_ttl <= 0" (fun () ->
      Swala.Config.validate (make ~freshness_min_ttl:0. ()));
  expect_invalid "max < min" (fun () ->
      Swala.Config.validate (make ~freshness_min_ttl:2. ~freshness_max_ttl:1. ()));
  expect_invalid "penalty <= 0" (fun () ->
      Swala.Config.validate (make ~freshness_penalty:0. ()));
  expect_invalid "window <= 0" (fun () ->
      Swala.Config.validate (make ~freshness_window:0. ()));
  expect_invalid "budget < 0" (fun () ->
      Swala.Config.validate (make ~refresh_budget:(-1.) ()));
  expect_invalid "adaptive without a cache" (fun () ->
      Swala.Config.validate
        (make ~cache_mode:Swala.Config.Disabled
           ~freshness:Cache.Freshness.Adaptive ()));
  expect_invalid "refresh budget without a cache" (fun () ->
      Swala.Config.validate
        (make ~cache_mode:Swala.Config.Disabled ~refresh_budget:1. ()));
  (* The defaults and a fully-on freshness plane both validate. *)
  Swala.Config.validate (make ());
  Swala.Config.validate
    (make ~freshness:Cache.Freshness.Adaptive ~refresh_budget:4. ());
  (* [--freshness] parses the names [mode_to_string] gives. *)
  check_bool "mode names distinct" true
    (Cache.Freshness.mode_to_string Cache.Freshness.Fixed
    <> Cache.Freshness.mode_to_string Cache.Freshness.Adaptive)

(* ------------------------------------------------------------------ *)
(* Fixed-mode neutrality and replay determinism *)

let coop_trace ~seed ~n =
  Workload.Synthetic.coop ~seed ~n ~n_unique:(Stdlib.max 1 (n * 7 / 10))
    ~locality:0.08 ()

(* Spelling out the plane's "off" settings must reproduce the default
   config's run to the last JSON byte — the in-process half of the
   byte-identity acceptance check (CI diffs the full binary output). *)
let test_fixed_mode_neutral () =
  let trace = coop_trace ~seed:11 ~n:300 in
  let run cfg = Swala.Cluster_runner.run cfg ~trace ~n_streams:8 () in
  let base =
    run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~seed:11 ())
  and explicit =
    run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~freshness:Cache.Freshness.Fixed ~refresh_budget:0.
         ~freshness_window:2. ~seed:11 ())
  in
  Alcotest.(check string)
    "identical JSON payloads"
    (Swala.Cluster_runner.result_to_json base)
    (Swala.Cluster_runner.result_to_json explicit);
  check_bool "no freshness key when the plane is off" false
    base.Swala.Cluster_runner.freshness_active;
  (* The staleness histogram is still recorded host-side (hits have
     ages even under fixed TTLs) — it just stays out of the payload. *)
  check_bool "staleness recorded regardless" true
    (Metrics.Histogram.count base.Swala.Cluster_runner.staleness > 0)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_adaptive_json_keys () =
  let trace = coop_trace ~seed:3 ~n:200 in
  let r =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative
         ~freshness:Cache.Freshness.Adaptive ~seed:3 ())
      ~trace ~n_streams:4 ()
  in
  let json = Swala.Cluster_runner.result_to_json r in
  check_bool "freshness key present" true
    (r.Swala.Cluster_runner.freshness_active);
  check_bool "json carries freshness" true
    (contains json "\"freshness\"" && contains json "\"staleness_s\"")

(* 50-seed determinism sweep with the whole plane on: same seed, same
   trace, same everything -> byte-identical metrics JSON across two
   independent runs (fresh engine, fresh cluster, fresh controller). *)
let test_determinism_sweep () =
  for seed = 0 to 49 do
    let trace = coop_trace ~seed ~n:200 in
    let run () =
      Swala.Cluster_runner.result_to_json
        (Swala.Cluster_runner.run
           (Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative
              ~freshness:Cache.Freshness.Adaptive
              ~default_ttl:(Some 1.) ~refresh_budget:2. ~seed ())
           ~trace ~n_streams:4 ())
    in
    let a = run () and b = run () in
    if a <> b then Alcotest.failf "seed %d: replay diverged" seed
  done

(* ------------------------------------------------------------------ *)
(* Refresh daemon effectiveness *)

(* A hot head over expensive CGIs with short adaptive TTLs: the daemon
   must actually re-execute near-expiry entries (refreshes > 0) and some
   of those refreshes must displace client-visible recomputes
   (refresh_saved_ms > 0). With the budget at zero neither counter may
   appear. *)
let test_refresh_effectiveness () =
  let trace =
    Workload.Synthetic.coop ~seed:5 ~n:1500 ~n_unique:60 ~n_hot:8 ~zipf_s:1.2
      ~demand:0.02 ()
  in
  let run budget =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative
         ~cache_threshold:0.001 ~freshness:Cache.Freshness.Adaptive
         ~default_ttl:(Some 0.5) ~refresh_budget:budget ~seed:5 ())
      ~trace ~n_streams:8 ()
  in
  let off = run 0. and on = run 8. in
  let get r n = Metrics.Counter.get r.Swala.Cluster_runner.counters n in
  check_int "no refreshes without a budget" 0 (get off Swala.Server.K.refreshes);
  check_int "no savings without a budget" 0
    (get off Swala.Server.K.refresh_saved_ms);
  check_bool "daemon refreshed entries" true
    (get on Swala.Server.K.refreshes > 0);
  check_bool "refreshes displaced client recomputes" true
    (get on Swala.Server.K.refresh_saved_ms > 0);
  (* The 0.5 s anchor is deliberately tighter than the adaptive TTLs, so
     some adaptive hits are older than a fixed-0.5 cache would allow. *)
  check_bool "stale_served counted against the anchor" true
    (get on Swala.Server.K.stale_served > 0
    || get off Swala.Server.K.stale_served > 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "freshness"
    [
      qsuite "controller"
        [
          ttl_clamped; ttl_monotone_cost; ttl_monotone_penalty;
          ttl_monotone_rate;
        ];
      ( "controller-units",
        [
          Alcotest.test_case "sweep drops cold keys" `Quick
            test_sweep_drops_cold;
        ] );
      qsuite "precedence" [ effective_ttl_precedence ];
      qsuite "staleness" [ staleness_bound ];
      ( "boundaries",
        [
          Alcotest.test_case "Meta.expired at the instant" `Quick
            test_meta_expiry_instant;
          Alcotest.test_case "store expiry instant" `Quick
            test_store_expiry_instant;
          Alcotest.test_case "Lookup_cache until edge" `Quick
            test_lookup_cache_until_edge;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "neutrality",
        [
          Alcotest.test_case "fixed mode reproduces default" `Quick
            test_fixed_mode_neutral;
          Alcotest.test_case "adaptive JSON keys" `Quick
            test_adaptive_json_keys;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "50-seed replay sweep" `Slow
            test_determinism_sweep;
        ] );
      ( "refresh",
        [
          Alcotest.test_case "effectiveness" `Quick test_refresh_effectiveness;
        ] );
    ]
