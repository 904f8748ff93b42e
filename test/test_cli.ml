(* The command-line binaries, run as built:
   - [swala_sim]'s usage errors: a bad count or an output path that
     cannot be written ends it with one line on stderr and exit status 2,
     before any simulation runs (so nothing reaches stdout); an unknown
     enumerated value is cmdliner's usage error (exit 124);
   - every [swala_sim run] flag that sets a [Config] field reaches it;
   - [swala_sim run] with telemetry prints the same flight-recorder
     tables as [swala_sim report] on the run's metrics JSON;
   - EXPERIMENTS.md's CLI recipes print the figures the document quotes;
   - [perf_gate]'s and [metrics_diff]'s verdicts and input errors;
   - [loganalyze] on a trace [swala_sim gen] wrote, and on a malformed one;
   - every reader of an input file, given a directory, prints one line.
   The four binaries are the first four arguments. *)

let exe = ref ""
let perf_gate = ref ""
let loganalyze = ref ""
let metrics_diff = ref ""

(* Scratch space: a regular file, so no path below it can be opened, and
   a directory for paths that can. In the directory, a subdirectory sits
   where one per-seed and one per-node output file should go, so those
   files are unwritable while their siblings are fine. *)
let not_a_dir = Filename.temp_file "swala_cli" ".file"
let blocked = [ "m.json.43"; "tel.node1.csv" ]

let scratch_dir =
  let d = Filename.temp_file "swala_cli" ".dir" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  List.iter (fun name -> Sys.mkdir (Filename.concat d name) 0o755) blocked;
  d

let () =
  at_exit (fun () ->
      Array.iter
        (fun name ->
          let p = Filename.concat scratch_dir name in
          if Sys.is_directory p then Sys.rmdir p else Sys.remove p)
        (Sys.readdir scratch_dir);
      Sys.rmdir scratch_dir;
      Sys.remove not_a_dir)

let in_scratch name = Filename.concat scratch_dir name
let unwritable name = Filename.concat not_a_dir name

let read_lines path =
  let ic = open_in_bin path in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

(* Run a binary ([swala_sim] by default); return its exit status, stdout
   and stderr lines. *)
let run ?(exe = exe) args =
  let out = Filename.temp_file "swala_cli" ".out"
  and err = Filename.temp_file "swala_cli" ".err" in
  let status = Sys.command (Filename.quote_command !exe ~stdout:out ~stderr:err args) in
  let o = read_lines out and e = read_lines err in
  Sys.remove out;
  Sys.remove err;
  (status, o, e)

(* A temporary file holding [contents], removed after [f] returns. *)
let with_file contents f =
  let path = Filename.temp_file "swala_cli" ".json" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let usage_error args expected () =
  let status, out, err = run args in
  Alcotest.(check int) "exit status" 2 status;
  Alcotest.(check (list string)) "nothing on stdout" [] out;
  Alcotest.(check (list string)) "one line on stderr" [ expected ] err

let cases =
  let small = [ "run"; "--requests"; "20" ] in
  [
    ( "run --streams 0",
      [ "run"; "--streams"; "0" ],
      "swala_sim run: --streams must be >= 1" );
    ( "run --requests 0",
      [ "run"; "--requests"; "0" ],
      "swala_sim run: --requests must be >= 1" );
    ( "gen --requests 0",
      [ "gen"; "--requests"; "0" ],
      "swala_sim gen: --requests must be >= 1" );
    ( "run --trace",
      small @ [ "--trace"; unwritable "t.json" ],
      Printf.sprintf "swala_sim run: --trace: cannot write %s: Not a directory"
        (unwritable "t.json") );
    ( "run --metrics-out",
      small @ [ "--metrics-out"; unwritable "m.json" ],
      Printf.sprintf "swala_sim run: --metrics-out: cannot write %s: Not a directory"
        (unwritable "m.json") );
    ( "run --metrics-out .SEED",
      small @ [ "--seeds"; "2"; "--metrics-out"; in_scratch "m.json" ],
      Printf.sprintf "swala_sim run: --metrics-out: cannot write %s: Is a directory"
        (in_scratch "m.json.43") );
    ( "run --telemetry-csv",
      small @ [ "-n"; "2"; "--telemetry-interval"; "1"; "--telemetry-csv"; in_scratch "tel" ],
      Printf.sprintf "swala_sim run: --telemetry-csv: cannot write %s: Is a directory"
        (in_scratch "tel.node1.csv") );
    ( "run --incidents-out",
      small @ [ "--telemetry-interval"; "1"; "--incidents-out"; unwritable "i.log" ],
      Printf.sprintf "swala_sim run: --incidents-out: cannot write %s: Not a directory"
        (unwritable "i.log") );
    ( "gen --output",
      [ "gen"; "--requests"; "5"; "--out"; unwritable "g.log" ],
      Printf.sprintf "swala_sim gen: --output: cannot write %s: Not a directory"
        (unwritable "g.log") );
  ]

(* Flag values only validation can reject end the same way, with the
   validator's one line. *)
let validation_cases =
  [
    ( "run --partition naming no node",
      [ "run"; "--nodes"; "2"; "--requests"; "20"; "--partition"; "1:2:0|5";
        "--fetch-timeout"; "1" ],
      "Config: partition node id 5 must be < n_nodes (2)" );
    ( "run --flash-crowd with no keys",
      [ "run"; "--requests"; "20"; "--flash-crowd"; "1:1:0.5:0" ],
      "Scenario: flash fc_keys must be >= 1" );
    ( "run --churn-rate inf",
      [ "run"; "--nodes"; "2"; "--requests"; "10"; "--churn-rate"; "inf";
        "--fetch-timeout"; "1" ],
      "Fault: churn interval 1/rate must advance the clock at the horizon" );
    ( "run --scenario-duration inf",
      [ "run"; "--nodes"; "2"; "--requests"; "10"; "--scenario-duration";
        "inf"; "--diurnal"; "10:0.5" ],
      "Scenario: duration must be finite" );
    (* The fault-shaping flags are checked with no fault source set. *)
    ( "run --fault-horizon=-5 alone",
      [ "run"; "--nodes"; "2"; "--requests"; "10"; "--fault-horizon=-5" ],
      "Fault: horizon must be positive" );
    ( "run --crash-mttr=-1 alone",
      [ "run"; "--nodes"; "2"; "--requests"; "10"; "--crash-mttr=-1" ],
      "Fault: node mttr must be positive" );
    ( "run --churn-downtime=-1 alone",
      [ "run"; "--nodes"; "2"; "--requests"; "10"; "--churn-downtime=-1" ],
      "Fault: churn downtime must be positive" );
    ( "run --fetch-timeout inf",
      [ "run"; "--nodes"; "4"; "--requests"; "20"; "--drop-rate"; "0.2";
        "--fetch-timeout"; "inf" ],
      "Config: fetch_timeout must be finite" );
    (* EXPERIMENTS.md A8: either recipe without --fetch-timeout. *)
    ( "run --drop-rate without --fetch-timeout",
      [ "run"; "--nodes"; "4"; "--requests"; "20"; "--drop-rate"; "0.2" ],
      "Config: message loss or node crashes require a fetch_timeout (lost \
       replies would wedge request threads)" );
    ( "run --crash-mtbf without --fetch-timeout",
      [ "run"; "--nodes"; "4"; "--requests"; "20"; "--crash-mtbf"; "60";
        "--crash-mttr"; "2" ],
      "Config: message loss or node crashes require a fetch_timeout (lost \
       replies would wedge request threads)" );
  ]

(* EXPERIMENTS.md's CLI recipes. Each prints every figure the document
   quotes, at the precision quoted, every line it quotes whole, and none
   of the counters it says stay at zero (a counter at zero is not
   printed). A8's Recipe 1 and A10's recipe come with the run the
   document compares them with. *)
type recipe = {
  args : string list;  (* after [run] *)
  quoted : (string * int * string) list;  (* label, decimals, figure *)
  lines : string list;
  absent : string list;
}

let recipe ?(lines = []) ?(absent = []) args quoted =
  { args; quoted; lines; absent }

let hits = "cache hits (local+remote)"
and ratio = "hit ratio"
and mean = "mean response time"
and makespan = "simulated makespan"
and lost = "messages lost:"

(* The label of counter [name] in the counters block. *)
let counter name = "  " ^ name ^ " "
let counts = List.map (fun (name, n) -> (counter name, 0, string_of_int n))

let a8_recipes =
  let a8 flags =
    [ "--nodes"; "4"; "--workload"; "coop"; "--requests"; "1600";
      "--router"; "least-active" ]
    @ flags
  and retries = [ "--fetch-timeout"; "0.5"; "--fetch-retries"; "2" ] in
  [
    ( "recipe 1: 20 % drop",
      recipe
        (a8 ([ "--drop-rate"; "0.2" ] @ retries))
        ([ (lost, 0, "865"); (hits, 0, "411"); (mean, 3, "3.180") ]
        @ counts
            [ ("fetch_retries", 117); ("fetch_timeouts", 6);
              ("dir_suspect_purged", 1028); ("requests", 1600) ]) );
    ( "recipe 1 without faults",
      recipe (a8 [])
        [ (hits, 0, "466"); (mean, 3, "3.021"); (makespan, 1, "310.4") ] );
    ( "recipe 2: crash churn",
      recipe ~absent:[ "rejected_down" ]
        (a8 ([ "--crash-mtbf"; "60"; "--crash-mttr"; "2" ] @ retries))
        ([ (hits, 0, "397"); (mean, 3, "3.445"); (makespan, 0, "363") ]
        @ counts [ ("crashes", 18); ("restarts", 18); ("false_hit", 43) ]) );
  ]

let a9_to_a13_recipes =
  let coop n = [ "--nodes"; "4"; "--workload"; "coop"; "--requests"; n ]
  and hinted = [ "--dir-hints" ]
  and batched = [ "--batch-max"; "64"; "--batch-flush-interval"; "0.02" ] in
  [
    ( "A9 partition heal",
      recipe
        (coop "800"
        @ [ "--partition"; "1:8:0,1|2,3"; "--anti-entropy-period"; "2";
            "--fetch-timeout"; "0.5" ])
        ((lost, 0, "41")
        :: counts
             [ ("partitions_healed", 1); ("anti_entropy_rounds", 298);
               ("anti_entropy_pulled", 32); ("false_miss_duplicate", 11);
               ("requests", 800) ]) );
    ( "A10 batched",
      recipe ~absent:[ "hint_false" ]
        (coop "400" @ batched @ hinted)
        ([ (hits, 0, "94"); (mean, 4, "3.0898") ]
        @ counts
            [ ("broadcast_insert", 306); ("info_msgs", 594);
              ("batches_sent", 66); ("batch_updates", 174);
              ("info_applied", 918); ("hint_probes_saved", 178);
              ("cgi_execs", 306); ("false_miss_duplicate", 17) ]) );
    ( "A10 unbatched",
      recipe ~absent:[ "hint_false"; "batches_sent" ]
        (coop "400" @ hinted)
        ([ (hits, 0, "102"); (mean, 4, "2.9875") ]
        @ counts
            [ ("broadcast_insert", 298); ("info_msgs", 894);
              ("cgi_execs", 298); ("false_miss_duplicate", 14) ]) );
    ( "A11 sharded plane",
      recipe
        [ "--nodes"; "8"; "--workload"; "coop"; "--requests"; "600";
          "--seed"; "7"; "--dir-mode"; "sharded"; "--hotspot-threshold"; "1" ]
        ((hits, 0, "154")
        :: counts
             [ ("info_msgs", 477); ("broadcast_insert", 446);
               ("shard_local_lookups", 73); ("shard_fwd_lookups", 502);
               ("dir_lookup_msgs", 1004); ("lcache_pos_hits", 22);
               ("lcache_neg_hits", 3); ("hotspot_promotions", 23);
               ("hotspot_replica_pushes", 44); ("hotspot_demotions", 23);
               ("false_miss_duplicate", 23); ("requests", 600) ]) );
    ( "A12 mixed scenario",
      recipe
        ~lines:
          [ "scenario phases           pre[0,15), crowd[15,30), \
             decay[30,45), post[45,60)" ]
        (coop "800"
        @ [ "--scenario"; "mixed"; "--fetch-timeout"; "0.5"; "--seed"; "7" ])
        ([ (lost, 0, "210"); (hits, 0, "133"); (ratio, 1, "16.6") ]
        @ counts
            [ ("crashes", 45); ("restarts", 45);
              ("scenario_flash_redirects", 112); ("tier_metro_requests", 500);
              ("tier_regional_requests", 200); ("tier_far_requests", 100);
              ("fetch_timeouts", 28) ]) );
    ( "A13 adaptive freshness + refresh",
      recipe
        (coop "400"
        @ [ "--seed"; "7"; "--freshness"; "adaptive"; "--default-ttl"; "8";
            "--refresh-budget"; "4"; "--scenario-duration"; "30";
            "--flash-crowd"; "5:10:0.8:8"; "--fetch-timeout"; "0.5" ])
        ([ (hits, 0, "148"); (ratio, 1, "37.0"); ("hit age mean", 3, "5.452");
           ("p99", 3, "19.552") ]
        @ counts
            [ ("refreshes", 5); ("refresh_saved_ms", 1000);
              ("stale_served", 46); ("scenario_flash_redirects", 107) ]) );
  ]

(* The first number after [label] on the first line of [out] holding it. *)
let figure out label =
  let n = String.length label in
  let rec after line i =
    if i + n > String.length line then None
    else if String.sub line i n = label then
      Some (String.sub line (i + n) (String.length line - i - n))
    else after line (i + 1)
  in
  match List.find_map (fun line -> after line 0) out with
  | Some rest -> Scanf.sscanf rest " %f" Fun.id
  | None -> Alcotest.failf "no %S in the output" label

let test_recipe r () =
  let status, out, err = run ("run" :: r.args) in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  List.iter
    (fun (label, decimals, expected) ->
      Alcotest.(check string) label expected
        (Printf.sprintf "%.*f" decimals (figure out label)))
    r.quoted;
  List.iter
    (fun line -> Alcotest.(check bool) line true (List.mem line out))
    r.lines;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not counted") false
        (List.exists (String.starts_with ~prefix:(counter name)) out))
    r.absent

(* An unknown name for any enumerated flag stops the run before it
   prints anything, even on the multi-seed path. *)
let enum_cases =
  List.map
    (fun args ->
      ( String.concat " " args,
        fun () ->
          let status, out, _ = run args in
          Alcotest.(check int) "exit status" 124 status;
          Alcotest.(check (list string)) "nothing on stdout" [] out ))
    [
      [ "run"; "--mode"; "bogus" ];
      [ "run"; "--dir-mode"; "bogus" ];
      [ "run"; "--policy"; "bogus" ];
      [ "run"; "--freshness"; "bogus" ];
      [ "run"; "--router"; "bogus" ];
      [ "run"; "--workload"; "bogus" ];
      [ "run"; "--seeds"; "2"; "--workload"; "bogus" ];
      [ "gen"; "--workload"; "bogus" ];
    ]

(* Request counts too small for coop's default hot set of 120 keys. *)
let test_small_coop () =
  List.iter
    (fun args ->
      let status, _, err = run args in
      Alcotest.(check int) (String.concat " " args) 0 status;
      Alcotest.(check (list string)) "nothing on stderr" [] err)
    [
      [ "run"; "--workload"; "coop"; "--requests"; "100" ];
      [ "gen"; "--workload"; "coop"; "--requests"; "1" ];
    ]

(* The probes leave nothing behind: files they had to create for the
   per-seed and per-node siblings of a blocked path are removed again. *)
let test_probes_leave_no_files () =
  ignore (run [ "run"; "--requests"; "20"; "--seeds"; "2"; "--metrics-out"; in_scratch "m.json" ]);
  ignore
    (run
       [ "run"; "--requests"; "20"; "-n"; "2"; "--telemetry-interval"; "1";
         "--telemetry-csv"; in_scratch "tel" ]);
  Alcotest.(check (list string))
    "only the blocking directories" (List.sort compare blocked)
    (List.sort compare (Array.to_list (Sys.readdir scratch_dir)))

(* A telemetry run prints its flight-recorder tables from its own
   metrics JSON: exactly what [report] prints from the saved file. *)
let test_report_matches_run () =
  let path = Filename.temp_file "swala_cli" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let status, run_out, _ =
    run
      [ "run"; "--requests"; "400"; "--seed"; "7"; "--scenario-duration";
        "30"; "--flash-crowd"; "5:10:0.8:8"; "--churn-rate"; "0.3";
        "--churn-downtime"; "1"; "--fetch-timeout"; "0.5";
        "--telemetry-interval"; "0.5"; "--slo-target"; "2.5";
        "--metrics-out"; path ]
  in
  Alcotest.(check int) "run exit status" 0 status;
  let status, report_out, err = run [ "report"; path ] in
  Alcotest.(check int) "report exit status" 0 status;
  Alcotest.(check (list string)) "report stderr" [] err;
  Alcotest.(check bool) "report has both tables" true
    (List.exists (String.starts_with ~prefix:"Timelines (") report_out
    && List.exists (String.starts_with ~prefix:"Incidents (") report_out);
  let report = String.concat "\n" report_out in
  let rec contained = function
    | [] -> false
    | _ :: rest as lines ->
        String.starts_with ~prefix:report (String.concat "\n" lines)
        || contained rest
  in
  Alcotest.(check bool) "report output appears verbatim in the run's" true
    (contained run_out)

(* Each flag that sets a [Config] field reaches that field: the metrics
   JSON of a run with the flag set equals that of an in-process run of
   the trace [gen] writes for the same workload and seed, configured
   field by field. Between them, the replicated, sharded and standalone
   sets give every such flag a value other than its default, chosen so
   that it shows in the JSON. The timelines are left out of the
   comparison: their GC probe measures the host process. *)
let config_cases =
  let open Swala.Config in
  let d = { default with seed = 5 } in
  [
    ("no Config flag", [], d, Swala.Router.Per_stream);
    ( "replicated",
      [ "--nodes"; "3"; "--drop-rate"; "0.1"; "--fetch-timeout"; "0.5";
        "--fetch-retries"; "2"; "--anti-entropy-period"; "1.5";
        "--batch-max"; "4"; "--batch-flush-interval"; "0.05"; "--dir-hints";
        "--freshness"; "adaptive"; "--default-ttl"; "4"; "--refresh-budget";
        "2"; "--telemetry-interval"; "0.5"; "--slo-target"; "1"; "--router";
        "round-robin" ],
      {
        d with
        n_nodes = 3;
        fault =
          Some
            (Sim.Fault.make ~drop:0.1 ~partitions:[] ~horizon:600. ());
        fetch_timeout = Some 0.5;
        fetch_retries = 2;
        anti_entropy_period = Some 1.5;
        batch_max = 4;
        batch_flush_interval = Some 0.05;
        dir_hints = true;
        freshness = Cache.Freshness.Adaptive;
        default_ttl = Some 4.;
        refresh_budget = 2.;
        telemetry_interval = Some 0.5;
        slo_target = Some 1.;
      },
      Swala.Router.Round_robin );
    ( "sharded",
      [ "--nodes"; "4"; "--dir-mode"; "sharded"; "--shard-vnodes"; "16";
        "--shard-lookup-cache"; "8"; "--shard-pos-ttl"; "2";
        "--shard-neg-ttl"; "0.2"; "--hotspot-threshold"; "1";
        "--hotspot-window"; "1"; "--hotspot-replicas"; "1"; "--router";
        "least-active" ],
      {
        d with
        n_nodes = 4;
        dir_mode = Sharded;
        shard_vnodes = 16;
        shard_lookup_cache = 8;
        shard_pos_ttl = 2.;
        shard_neg_ttl = 0.2;
        hotspot_threshold = 1.;
        hotspot_window = 1.;
        hotspot_replicas = 1;
      },
      Swala.Router.Least_active );
    ( "standalone",
      [ "--nodes"; "2"; "--mode"; "standalone"; "--policy"; "gdsf";
        "--capacity"; "20" ],
      {
        d with
        n_nodes = 2;
        cache_mode = Standalone;
        policy = Cache.Policy.Gdsf;
        cache_capacity = 20;
      },
      Swala.Router.Per_stream );
  ]

let without_timelines json =
  match Metrics.Json.of_string json with
  | Ok (Metrics.Json.Obj fields) ->
      Metrics.Json.to_string
        (Metrics.Json.Obj (List.remove_assoc "timelines" fields))
  | Ok _ | Error _ -> Alcotest.failf "not a JSON object: %s" json

let test_flags_reach_config (flags, cfg, router) () =
  let common = [ "--workload"; "coop"; "--requests"; "300"; "--seed"; "5" ] in
  let trace =
    with_file "" @@ fun path ->
    let status, _, _ = run ([ "gen" ] @ common @ [ "--output"; path ]) in
    Alcotest.(check int) "gen exit status" 0 status;
    Result.get_ok
      (Workload.Logfmt.of_string (String.concat "\n" (read_lines path)))
  in
  let expected =
    Swala.Cluster_runner.result_to_json
      (Swala.Cluster_runner.run cfg ~trace ~n_streams:16 ~router ())
  in
  with_file "" @@ fun path ->
  let status, _, err =
    run ([ "run" ] @ common @ flags @ [ "--metrics-out"; path ])
  in
  Alcotest.(check int) "run exit status" 0 status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  Alcotest.(check string) "metrics JSON"
    (without_timelines expected)
    (without_timelines (String.concat "\n" (read_lines path)))

(* perf_gate on hand-written baseline/current files. *)
let gate ?(key = []) baseline current =
  with_file baseline @@ fun b ->
  with_file current @@ fun c ->
  let status, out, err =
    run ~exe:perf_gate ([ "--baseline"; b; "--current"; c ] @ key)
  in
  (status, out, err, c)

let baseline = {|{"events_per_sec_wall":100.0,"gc_minor_words_per_event":40.0}|}

let gate_error current expected () =
  let status, out, err, path = gate baseline current in
  Alcotest.(check int) "exit status" 2 status;
  Alcotest.(check (list string)) "nothing on stdout" [] out;
  Alcotest.(check (list string)) "one line on stderr"
    [ Printf.sprintf "perf_gate: %s: %s" path expected ] err

let gate_verdict ?key current expected_status () =
  let status, out, err, _ = gate ?key baseline current in
  Alcotest.(check int) "exit status" expected_status status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  Alcotest.(check bool) "a verdict on stdout" true
    (List.exists (String.starts_with ~prefix:"perf_gate: ") out)

let gate_cases =
  [
    Alcotest.test_case "truncated file" `Quick
      (gate_error {|{"events_per_sec_wall":2271517.1, "oops|}
         "at byte 39: unterminated string");
    Alcotest.test_case "missing key" `Quick
      (gate_error {|{"requests_per_sec_wall":90.0}|}
         {|no field "events_per_sec_wall"|});
    Alcotest.test_case "non-numeric value" `Quick
      (gate_error {|{"events_per_sec_wall":"fast"}|}
         {|field "events_per_sec_wall" is not a number|});
    Alcotest.test_case "passing ratio" `Quick
      (gate_verdict {|{"events_per_sec_wall":60.0}|} 0);
    Alcotest.test_case "regression" `Quick
      (gate_verdict {|{"events_per_sec_wall":40.0}|} 1);
    Alcotest.test_case "lower-is-better regression" `Quick
      (gate_verdict
         ~key:[ "--key"; "gc_minor_words_per_event:lower" ]
         {|{"gc_minor_words_per_event":100.0}|} 1);
  ]

(* loganalyze reads what [swala_sim gen] writes, and names the file and
   line of input it cannot parse. *)
let test_loganalyze_gen_trace () =
  with_file "" @@ fun path ->
  let status, _, _ = run [ "gen"; "--requests"; "200"; "--output"; path ] in
  Alcotest.(check int) "gen exit status" 0 status;
  let status, out, err = run ~exe:loganalyze [ path ] in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  Alcotest.(check bool) "the upper bound on hits is printed" true
    (List.exists
       (String.starts_with ~prefix:"Upper bound on cache hits")
       out)

let test_loganalyze_malformed () =
  with_file "garbage\n" @@ fun path ->
  let status, out, err = run ~exe:loganalyze [ path ] in
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check (list string)) "nothing on stdout" [] out;
  Alcotest.(check (list string)) "one line on stderr"
    [ Printf.sprintf "%s: line 1: unrecognised line \"garbage\"" path ]
    err

(* metrics_diff on hand-written files: a file against itself, a changed
   number, and malformed JSON. *)
let metrics = {|{"counters":{"requests":10},"response_s":{"p99":2.5}}|}

let test_diff_self () =
  with_file metrics @@ fun path ->
  let status, out, err =
    run ~exe:metrics_diff [ "--baseline"; path; "--current"; path ]
  in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  Alcotest.(check (list string)) "the verdict" [ "metrics_diff: PASS" ] out

let test_diff_drift () =
  with_file metrics @@ fun b ->
  with_file {|{"counters":{"requests":11},"response_s":{"p99":2.5}}|}
  @@ fun c ->
  let status, out, err =
    run ~exe:metrics_diff [ "--baseline"; b; "--current"; c ]
  in
  Alcotest.(check int) "exit status" 1 status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  Alcotest.(check bool) "the drifted path is named" true
    (List.mem "metrics_diff: counters.requests: 10 -> 11 (tolerance 0)" out)

let test_diff_malformed () =
  with_file metrics @@ fun b ->
  with_file {|{"counters":|} @@ fun c ->
  let status, out, err =
    run ~exe:metrics_diff [ "--baseline"; b; "--current"; c ]
  in
  Alcotest.(check int) "exit status" 2 status;
  Alcotest.(check (list string)) "nothing on stdout" [] out;
  Alcotest.(check (list string)) "one line on stderr"
    [ Printf.sprintf "metrics_diff: %s: at byte 12: unexpected end of input" c ]
    err

(* Each reader of an input file, given a directory, prints one line
   naming it and exits with its input-error status. *)
let unreadable_cases =
  let dir = scratch_dir in
  let unreadable = dir ^ ": Is a directory" in
  [
    ("swala_sim report", exe, [ "report"; dir ], 2, unreadable);
    ( "swala_sim run --rules",
      exe,
      [ "run"; "--requests"; "10"; "--rules"; dir ],
      2,
      unreadable );
    ("loganalyze", loganalyze, [ dir ], 1, unreadable);
    ( "metrics_diff",
      metrics_diff,
      [ "--baseline"; dir; "--current"; dir ],
      2,
      "metrics_diff: " ^ unreadable );
    ( "perf_gate",
      perf_gate,
      [ "--baseline"; dir; "--current"; dir ],
      2,
      "perf_gate: " ^ unreadable );
  ]

let unreadable_case (name, exe, args, expected_status, expected) =
  Alcotest.test_case name `Quick @@ fun () ->
  let status, out, err = run ~exe args in
  Alcotest.(check int) "exit status" expected_status status;
  Alcotest.(check (list string)) "nothing on stdout" [] out;
  Alcotest.(check (list string)) "one line on stderr" [ expected ] err

let usage_case (name, args, expected) =
  Alcotest.test_case name `Quick (usage_error args expected)

let recipe_case (name, r) = Alcotest.test_case name `Quick (test_recipe r)

let () =
  exe := Sys.argv.(1);
  perf_gate := Sys.argv.(2);
  loganalyze := Sys.argv.(3);
  metrics_diff := Sys.argv.(4);
  let argv = Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 5 (Array.length Sys.argv - 5)) in
  (* Alcotest shortens a long case name to fit beside the widest group
     name, so a group name longer than "failure-model" would change how
     the existing cases print. *)
  Alcotest.run ~argv "cli"
    [
      ( "usage-errors",
        List.map usage_case cases
        @ [ Alcotest.test_case "probes leave no files" `Quick test_probes_leave_no_files ]
        @ List.map
            (fun (name, f) -> Alcotest.test_case name `Quick f)
            enum_cases
        @ [ Alcotest.test_case "coop below 172 requests" `Quick test_small_coop ]
        @ List.map usage_case validation_cases );
      ( "config-flags",
        List.map
          (fun (name, flags, cfg, router) ->
            Alcotest.test_case name `Quick
              (test_flags_reach_config (flags, cfg, router)))
          config_cases );
      ( "telemetry",
        [
          Alcotest.test_case "report matches the run" `Quick
            test_report_matches_run;
        ] );
      ("failure-model", List.map recipe_case a8_recipes);
      ("recipes", List.map recipe_case a9_to_a13_recipes);
      ("perf-gate", gate_cases);
      ( "metrics-diff",
        [
          Alcotest.test_case "file against itself" `Quick test_diff_self;
          Alcotest.test_case "changed number" `Quick test_diff_drift;
          Alcotest.test_case "malformed JSON" `Quick test_diff_malformed;
        ] );
      ( "loganalyze",
        [
          Alcotest.test_case "gen trace analysed" `Quick
            test_loganalyze_gen_trace;
          Alcotest.test_case "malformed line" `Quick test_loganalyze_malformed;
        ] );
      ("unreadable", List.map unreadable_case unreadable_cases);
    ]
