(* The command-line binaries, run as built:
   - [swala_sim]'s usage errors: a bad count or an output path that
     cannot be written ends it with one line on stderr and exit status 2,
     before any simulation runs (so nothing reaches stdout); an unknown
     enumerated value is cmdliner's usage error (exit 124);
   - every [swala_sim run] flag that sets a [Config] field reaches it;
   - [swala_sim run] with telemetry prints the same flight-recorder
     tables as [swala_sim report] on the run's metrics JSON;
   - [perf_gate]'s verdicts and input errors;
   - [loganalyze] on a trace [swala_sim gen] wrote, and on a malformed one.
   The three binaries are the first three arguments. *)

let exe = ref ""
let perf_gate = ref ""
let loganalyze = ref ""

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
    ( "run --delay-mean=-1 alone",
      [ "run"; "--nodes"; "2"; "--requests"; "10"; "--delay-mean=-1" ],
      "Fault: link delay_mean must be >= 0" );
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

(* EXPERIMENTS.md A8's two CLI recipes, and the fault-free run Recipe 1
   is compared with: each prints every figure the document quotes, at
   the precision quoted, and none of the counters it says stay at zero
   (a counter at zero is not printed). *)
let a8_recipes =
  let drop =
    [ "--drop-rate"; "0.2"; "--fetch-timeout"; "0.5"; "--fetch-retries"; "2" ]
  and crash =
    [ "--crash-mtbf"; "60"; "--crash-mttr"; "2"; "--fetch-timeout"; "0.5";
      "--fetch-retries"; "2" ]
  and hits = "cache hits (local+remote)"
  and mean = "mean response time"
  and makespan = "simulated makespan" in
  [
    ( "recipe 1: 20 % drop",
      drop,
      [ ("messages lost:", 0, "865"); (hits, 0, "411"); (mean, 3, "3.180");
        ("  fetch_retries ", 0, "117"); ("  fetch_timeouts ", 0, "6");
        ("  dir_suspect_purged ", 0, "1028"); ("  requests ", 0, "1600") ],
      [] );
    ( "recipe 1 without faults",
      [],
      [ (hits, 0, "466"); (mean, 3, "3.021"); (makespan, 1, "310.4") ],
      [] );
    ( "recipe 2: crash churn",
      crash,
      [ ("  crashes ", 0, "18"); ("  restarts ", 0, "18"); (hits, 0, "397");
        (mean, 3, "3.445"); (makespan, 0, "363"); ("  false_hit ", 0, "43") ],
      [ "rejected_down" ] );
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

let test_a8_recipe (flags, quoted, absent) () =
  let status, out, err =
    run
      ([ "run"; "--nodes"; "4"; "--workload"; "coop"; "--requests"; "1600";
         "--router"; "least-active" ]
      @ flags)
  in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check (list string)) "nothing on stderr" [] err;
  List.iter
    (fun (label, decimals, expected) ->
      Alcotest.(check string) label expected
        (Printf.sprintf "%.*f" decimals (figure out label)))
    quoted;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not counted") false
        (List.exists
           (String.starts_with ~prefix:("  " ^ name ^ " "))
           out))
    absent

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
        "--fetch-retries"; "2"; "--fetch-backoff"; "3";
        "--anti-entropy-period"; "1.5"; "--batch-max"; "4";
        "--batch-flush-interval"; "0.05"; "--dir-hints"; "--freshness";
        "adaptive"; "--default-ttl"; "4"; "--refresh-budget"; "2";
        "--refresh-interval"; "0.25"; "--telemetry-interval"; "0.5";
        "--slo-target"; "1"; "--slo-objective"; "0.9"; "--router";
        "round-robin" ],
      {
        d with
        n_nodes = 3;
        fault =
          Some
            (Sim.Fault.make ~drop:0.1 ~delay:0. ~delay_mean:0.05
               ~partitions:[] ~horizon:600. ());
        fetch_timeout = Some 0.5;
        fetch_retries = 2;
        fetch_backoff = 3.;
        anti_entropy_period = Some 1.5;
        batch_max = 4;
        batch_flush_interval = Some 0.05;
        dir_hints = true;
        freshness = Cache.Freshness.Adaptive;
        default_ttl = Some 4.;
        refresh_budget = 2.;
        refresh_interval = 0.25;
        telemetry_interval = Some 0.5;
        slo_target = Some 1.;
        slo_objective = 0.9;
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

let usage_case (name, args, expected) =
  Alcotest.test_case name `Quick (usage_error args expected)

let () =
  exe := Sys.argv.(1);
  perf_gate := Sys.argv.(2);
  loganalyze := Sys.argv.(3);
  let argv = Array.append [| Sys.argv.(0) |] (Array.sub Sys.argv 4 (Array.length Sys.argv - 4)) in
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
      ( "failure-model",
        List.map
          (fun (name, flags, quoted, absent) ->
            Alcotest.test_case name `Quick
              (test_a8_recipe (flags, quoted, absent)))
          a8_recipes );
      ("perf-gate", gate_cases);
      ( "loganalyze",
        [
          Alcotest.test_case "gen trace analysed" `Quick
            test_loganalyze_gen_trace;
          Alcotest.test_case "malformed line" `Quick test_loganalyze_malformed;
        ] );
    ]
