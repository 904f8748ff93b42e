(* Tests for the flight recorder's storage plane: Timeline ring buffers
   (the bucket-merge conservation law, as QCheck properties), the probe
   Registry (probe kinds, width alignment, JSON/CSV export) and the
   metrics-JSON schema golden test that gives bin/metrics_diff a stable
   key set to diff against. *)

let count = Qcheck_count.or_default 200

module TL = Metrics.Timeline
module R = Metrics.Registry
module J = Metrics.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let close a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Timeline: the merge conservation law *)

(* Observation streams as (gap, value) pairs. Gaps up to several bucket
   widths force horizon-driven merges; dense stretches exercise
   in-bucket accumulation. *)
let obs_arb =
  let print obs =
    String.concat ";"
      (List.map (fun (dt, v) -> Printf.sprintf "+%g:%g" dt v) obs)
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (0 -- 300)
        (pair (float_bound_inclusive 3.) (float_range (-50.) 50.)))

let replay ?(capacity = 8) ~interval obs =
  let t = TL.create ~capacity ~interval () in
  let time = ref 0. in
  List.iter
    (fun (dt, v) ->
      time := !time +. dt;
      TL.record t ~time:!time v)
    obs;
  t

(* Merging halves resolution but may never lose or invent samples. *)
let prop_conservation =
  QCheck.Test.make ~count ~name:"merging conserves total count and sum"
    obs_arb
    (fun obs ->
      let t = replay ~interval:1.0 obs in
      let bs = TL.buckets t in
      let bn = Array.fold_left (fun a b -> a + b.TL.n) 0 bs in
      let bsum = Array.fold_left (fun a b -> a +. b.TL.total) 0. bs in
      let vsum = List.fold_left (fun a (_, v) -> a +. v) 0. obs in
      bn = List.length obs
      && TL.total_count t = bn
      && close (TL.total_sum t) vsum
      && close bsum vsum)

let prop_bounded =
  QCheck.Test.make ~count
    ~name:"memory stays bounded; width is interval * 2^k" obs_arb
    (fun obs ->
      let t = replay ~interval:1.0 obs in
      let rec pow2_multiple w = close w (TL.width t) || (w < TL.width t && pow2_multiple (w *. 2.)) in
      TL.n_buckets t <= TL.capacity t && pow2_multiple 1.0)

let prop_bucket_stats =
  QCheck.Test.make ~count ~name:"bucket statistics stay within the data"
    obs_arb
    (fun obs ->
      let t = replay ~interval:1.0 obs in
      let vs = List.map snd obs in
      let gmin = List.fold_left Float.min Float.infinity vs
      and gmax = List.fold_left Float.max Float.neg_infinity vs in
      Array.for_all
        (fun b ->
          if b.TL.n = 0 then
            Float.is_nan b.TL.mean && Float.is_nan b.TL.min
            && Float.is_nan b.TL.max
          else
            b.TL.min <= b.TL.max
            && b.TL.min -. 1e-9 <= b.TL.mean
            && b.TL.mean <= b.TL.max +. 1e-9
            && b.TL.min >= gmin && b.TL.max <= gmax)
        (TL.buckets t))

(* A tick-only sibling driven by the same instants ends with the same
   geometry — the invariant that keeps registry CSV rows aligned. *)
let prop_tick_alignment =
  QCheck.Test.make ~count ~name:"tick-driven sibling keeps the same geometry"
    obs_arb
    (fun obs ->
      let a = TL.create ~capacity:8 ~interval:1.0 ()
      and b = TL.create ~capacity:8 ~interval:1.0 () in
      let time = ref 0. in
      List.iter
        (fun (dt, v) ->
          time := !time +. dt;
          TL.record a ~time:!time v;
          TL.tick b ~time:!time)
        obs;
      TL.width a = TL.width b && TL.n_buckets a = TL.n_buckets b)

let test_merge_halves_resolution () =
  let t = TL.create ~capacity:4 ~interval:1.0 () in
  List.iteri
    (fun i v -> TL.record t ~time:(float_of_int i +. 0.5) v)
    [ 1.; 3.; 10.; 20. ];
  check_float "native width" 1.0 (TL.width t);
  (* The fifth bucket does not fit: pairs merge, width doubles. *)
  TL.record t ~time:4.5 7.;
  check_float "width doubled" 2.0 (TL.width t);
  check_int "three buckets used" 3 (TL.n_buckets t);
  let b0 = TL.bucket t 0 in
  check_int "merged count" 2 b0.TL.n;
  check_float "merged mean" 2.0 b0.TL.mean;
  check_float "merged min" 1.0 b0.TL.min;
  check_float "merged max" 3.0 b0.TL.max;
  check_int "conserved" 5 (TL.total_count t)

let test_timeline_validates () =
  Alcotest.check_raises "tiny capacity"
    (Invalid_argument "Timeline.create: capacity must be >= 2") (fun () ->
      ignore (TL.create ~capacity:1 ~interval:1.0 () : TL.t));
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Timeline.create: interval must be > 0") (fun () ->
      ignore (TL.create ~interval:0. () : TL.t));
  let t = TL.create ~interval:1.0 () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Timeline.record: negative time") (fun () ->
      TL.record t ~time:(-1.) 0.)

(* ------------------------------------------------------------------ *)
(* Registry: probe kinds, export alignment *)

(* One registry, three probe kinds, three windows: a healthy window, an
   empty-histogram window (the alignment case) and a counter reset. *)
let sampled_registry () =
  let reg = R.create ~interval:1.0 () in
  let g = ref 2. and c = ref 0. and hc = ref 0. and ht = ref 0. in
  R.gauge reg "g" (fun () -> !g);
  R.counter reg "c" (fun () -> !c);
  R.histogram reg "h" (fun () -> (!hc, !ht));
  c := 5.;
  hc := 2.;
  ht := 3.;
  R.sample reg ~time:0.5;
  g := 4.;
  (* counter stalls, histogram sees no new observations *)
  R.sample reg ~time:1.5;
  c := 2.;
  (* cumulative reading fell: a counter reset, not a negative rate *)
  hc := 3.;
  ht := 4.5;
  R.sample reg ~time:2.5;
  reg

let find_series reg name =
  match List.find_opt (fun (s : R.series) -> s.name = name) (R.series reg) with
  | Some s -> s
  | None -> Alcotest.failf "series %s not found" name

let test_registry_kinds () =
  let reg = sampled_registry () in
  check_int "three sampling rounds" 3 (R.n_samples reg);
  let g = find_series reg "g" in
  let c = find_series reg "c" in
  let h = find_series reg "h" in
  List.iter
    (fun (s : R.series) ->
      check_float (s.name ^ " width") 1.0 s.width;
      check_int (s.name ^ " points") 3 (Array.length s.points))
    [ g; c; h ];
  check_float "gauge window 1" 2. (snd g.points.(0));
  check_float "gauge window 2" 4. (snd g.points.(1));
  check_float "counter rate window 1" 5. (snd c.points.(0));
  check_float "counter stall is a zero rate" 0. (snd c.points.(1));
  check_float "reset restarts from the new reading" 2. (snd c.points.(2));
  check_float "windowed mean of 2 obs" 1.5 (snd h.points.(0));
  check_bool "empty histogram window is nan" true
    (Float.is_nan (snd h.points.(1)));
  check_float "windowed mean of the delta" 1.5 (snd h.points.(2))

let test_registry_duplicate_name () =
  let reg = R.create ~interval:1.0 () in
  R.gauge reg "g" (fun () -> 0.);
  Alcotest.check_raises "duplicate probe"
    (Invalid_argument "Registry: duplicate probe g") (fun () ->
      R.counter reg "g" (fun () -> 0.))

let test_csv_aligned () =
  let reg = sampled_registry () in
  (match String.split_on_char '\n' (String.trim (R.to_csv reg)) with
  | [ header; r0; r1; r2 ] ->
      check_string "header" "t,g,c,h" header;
      check_string "window 1" "0,2,5,1.5" r0;
      check_string "empty histogram window leaves an empty cell" "1,4,0," r1;
      check_string "window 3" "2,4,2,1.5" r2
  | lines -> Alcotest.failf "expected 4 CSV lines, got %d" (List.length lines));
  (* keep filters columns, not rows *)
  match
    String.split_on_char '\n'
      (String.trim (R.to_csv ~keep:(fun n -> n = "g") reg))
  with
  | header :: rows ->
      check_string "filtered header" "t,g" header;
      check_int "still one row per bucket" 3 (List.length rows)
  | [] -> Alcotest.fail "empty CSV"

(* The JSON export round-trips through the parser the CLI tools use, and
   empty windows serialize as null — the convention metrics_diff and
   `swala_sim report` both rely on. *)
let test_registry_json_null () =
  let reg = sampled_registry () in
  let j =
    match J.of_string (J.to_string (R.to_json reg)) with
    | Ok v -> v
    | Error e -> Alcotest.failf "registry JSON does not parse: %s" e
  in
  check_bool "interval_s present" true (J.member "interval_s" j <> None);
  (match J.member "series" j with
  | Some series ->
      Alcotest.(check (list string))
        "series in registration order" [ "g"; "c"; "h" ] (J.keys series);
      let h = Option.get (J.member "h" series) in
      check_string "kind" "mean"
        (match J.member "kind" h with Some (J.Str s) -> s | _ -> "?");
      (match J.member "points" h with
      | Some (J.List [ _; p1; _ ]) -> (
          (match J.member "v" p1 with
          | Some J.Null -> ()
          | other ->
              Alcotest.failf "empty window v should be null, got %s"
                (match other with None -> "absent" | Some v -> J.to_string v));
          match J.member "n" p1 with
          | Some (J.Int 0) -> ()
          | _ -> Alcotest.fail "empty window n should be 0")
      | _ -> Alcotest.fail "expected three points")
  | None -> Alcotest.fail "no series object")

(* ------------------------------------------------------------------ *)
(* Metrics-JSON schema: the golden key set metrics_diff diffs against *)

let base_keys =
  [
    "duration_s"; "n_requests"; "n_events"; "hits"; "hit_ratio"; "net_lost";
    "net_lost_partition"; "dir_lock_acquisitions"; "dir_mode"; "dir_entries";
    "shard_imbalance"; "forward_wait_s"; "hit_latency_s"; "utilisation";
    "response_s"; "cgi_response_s"; "file_response_s"; "counters";
    "wait_histograms";
  ]

let tiny_run ?telemetry_interval ?slo_target () =
  let trace = Workload.Synthetic.coop ~seed:3 ~n:60 ~n_unique:42 ~n_hot:6 () in
  Swala.Cluster_runner.run
    (Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative
       ~telemetry_interval ~slo_target ~seed:3 ())
    ~trace ~n_streams:4 ()

let parse_result r =
  match J.of_string (Swala.Cluster_runner.result_to_json r) with
  | Ok v -> v
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e

let test_json_schema_golden () =
  let r = tiny_run () in
  check_bool "telemetry off: no registry" true (r.Swala.Cluster_runner.timelines = None);
  check_bool "telemetry off: no monitor" true (r.Swala.Cluster_runner.health = None);
  Alcotest.(check (list string))
    "default payload key set and order" base_keys
    (J.keys (parse_result r))

let test_json_schema_telemetry () =
  let r = tiny_run ~telemetry_interval:0.5 ~slo_target:0.5 () in
  let j = parse_result r in
  Alcotest.(check (list string))
    "telemetry appends its sections last"
    (base_keys @ [ "timelines"; "incidents" ])
    (J.keys j);
  (match J.member "timelines" j with
  | Some tl ->
      Alcotest.(check (list string))
        "timelines section shape"
        [ "interval_s"; "samples"; "series" ]
        (J.keys tl)
  | None -> Alcotest.fail "no timelines section");
  match J.member "incidents" j with
  | Some (J.List _) -> ()
  | _ -> Alcotest.fail "incidents should be a list"

(* The observer must not perturb the simulation: the same run with the
   flight recorder on reports identical behavioral metrics (only
   n_events moves, by the sampler daemon's own wakeups). *)
let test_telemetry_does_not_perturb () =
  let off = tiny_run () and on = tiny_run ~telemetry_interval:0.5 () in
  Alcotest.(check (float 0.))
    "same makespan" off.Swala.Cluster_runner.duration
    on.Swala.Cluster_runner.duration;
  check_int "same hits" off.Swala.Cluster_runner.hits
    on.Swala.Cluster_runner.hits;
  Alcotest.(check (float 0.))
    "same mean response"
    (Swala.Cluster_runner.mean_response off)
    (Swala.Cluster_runner.mean_response on)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "timeline"
    [
      qsuite "timeline-props"
        [
          prop_conservation; prop_bounded; prop_bucket_stats;
          prop_tick_alignment;
        ];
      ( "timeline",
        [
          Alcotest.test_case "merge halves resolution" `Quick
            test_merge_halves_resolution;
          Alcotest.test_case "validation" `Quick test_timeline_validates;
        ] );
      ( "registry",
        [
          Alcotest.test_case "probe kinds" `Quick test_registry_kinds;
          Alcotest.test_case "duplicate names rejected" `Quick
            test_registry_duplicate_name;
          Alcotest.test_case "CSV rows stay aligned" `Quick test_csv_aligned;
          Alcotest.test_case "JSON nulls for empty windows" `Quick
            test_registry_json_null;
        ] );
      ( "schema",
        [
          Alcotest.test_case "default payload golden keys" `Quick
            test_json_schema_golden;
          Alcotest.test_case "telemetry payload golden keys" `Quick
            test_json_schema_telemetry;
          Alcotest.test_case "telemetry does not perturb the run" `Quick
            test_telemetry_does_not_perturb;
        ] );
    ]
