(* Benchmark harness: prints the targets of [Swala.Experiments.targets]
   (the paper's evaluation tables and figures in the paper's row/column
   layout, the ablations and a traced-replay breakdown), plus [micro], a
   wall-clock run of the simulator itself. `swala_sim list` names the
   targets.

   Usage:
     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- table1 figure4 ...
                                              run a subset
     dune exec bench/main.exe -- micro        wall-clock end-to-end run
                                              (writes BENCH_perf.json and
                                              BENCH_metrics.json)
     dune exec bench/main.exe -- --jobs 4 ablation-dirmode
                                              sweep-parallel ablations on 4
                                              domains (0 = all cores);
                                              output identical to --jobs 1 *)

let seed = 42

(* When --csv DIR is given, every table is additionally written as
   DIR/<target>-<n>.csv (one file per table in emission order). *)
let csv_dir : string option ref = ref None
let current_target = ref ""
let csv_counter = ref 0

(* --jobs N: domain count for the sweep-parallel ablations (A11/A12/A13).
   Sweep results are merged in point order, so tables are byte-identical
   for any value; 0 means "ask the runtime". *)
let jobs = ref 1

let emit = function
  | Swala.Experiments.Text line -> Printf.printf "%s\n\n" line
  | Swala.Experiments.Table t -> (
      Metrics.Table.print t;
      match !csv_dir with
      | None -> ()
      | Some dir ->
          incr csv_counter;
          let path =
            Filename.concat dir
              (Printf.sprintf "%s-%d.csv" !current_target !csv_counter)
          in
          let oc = open_out path in
          output_string oc (Metrics.Table.to_csv t);
          close_out oc)

(* Wall-clock end-to-end benchmark: how fast does the simulator itself
   run on the host? Times a cooperative 4-node replay and records
   requests/sec and events/sec of {e wall} time in BENCH_perf.json, so
   future optimisation PRs have a perf trajectory to compare against. *)
let micro () =
  let n_requests = 2_000 in
  let trace =
    Workload.Synthetic.coop ~seed ~n:n_requests ~n_unique:1400 ~locality:0.08 ()
  in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative ~seed ()
  in
  let go () = Swala.Cluster_runner.run cfg ~trace ~n_streams:16 () in
  (* One throwaway run warms the minor heap and code paths. *)
  ignore (go () : Swala.Cluster_runner.result);
  (* The run is deterministic, so wall-time spread across repeats is pure
     host noise; report the fastest of five to keep the committed
     baseline comparable across noisy machines (CI runners included). *)
  let best_wall = ref infinity and best_r = ref None and minor = ref 0. in
  (* Words allocated straight into the major heap (major minus promoted):
     blocks too large for the minor heap, such as rendered bodies. *)
  let direct_major = ref 0. in
  for _ = 1 to 5 do
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = go () in
    let wall = Unix.gettimeofday () -. t0 in
    if wall < !best_wall then begin
      let s1 = Gc.quick_stat () in
      best_wall := wall;
      best_r := Some r;
      minor := s1.Gc.minor_words -. s0.Gc.minor_words;
      direct_major :=
        s1.Gc.major_words -. s0.Gc.major_words
        -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
    end
  done;
  let r = Option.get !best_r in
  let wall = !best_wall in
  let events = r.Swala.Cluster_runner.n_events in
  let rps = float_of_int n_requests /. wall in
  let eps = float_of_int events /. wall in
  let words_per_event = !minor /. float_of_int events in
  let major_per_request = !direct_major /. float_of_int n_requests in
  Printf.printf
    "End-to-end (4 nodes, %d requests, %d sim events): %.3f s wall -> %.0f \
     requests/s, %.0f events/s, %.1f minor words/event, %.1f direct major \
     words/request\n"
    n_requests events wall rps eps words_per_event major_per_request;
  let module J = Metrics.Json in
  let oc = open_out "BENCH_perf.json" in
  J.write oc
    (J.Obj
       [
         ("benchmark", J.Str "swala-e2e-coop-4node");
         ("nodes", J.Int 4);
         ("requests", J.Int n_requests);
         ("sim_events", J.Int events);
         ("wall_seconds", J.Float wall);
         ("requests_per_sec_wall", J.Float rps);
         ("events_per_sec_wall", J.Float eps);
         ("gc_minor_words_per_event", J.Float words_per_event);
         ("gc_major_words_per_request", J.Float major_per_request);
       ]);
  output_char oc '\n';
  close_out oc;
  (* The simulated behaviour of the same run, for metrics_diff. *)
  let oc = open_out "BENCH_metrics.json" in
  output_string oc (Swala.Cluster_runner.result_to_json r);
  output_char oc '\n';
  close_out oc;
  Printf.printf "Wrote BENCH_perf.json and BENCH_metrics.json\n\n"

let targets =
  List.map
    (fun (e : Swala.Experiments.target) ->
      (e.name, fun () -> List.iter emit (e.output ~jobs:!jobs)))
    Swala.Experiments.targets
  @ [ ("micro", micro) ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let rec parse_flags = function
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "--csv: %s is not a directory\n" dir;
          exit 2
        end;
        csv_dir := Some dir;
        parse_flags rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 0 ->
            jobs := (if j = 0 then Sim.Sweep.default_jobs () else j)
        | _ ->
            Printf.eprintf "--jobs: expected a non-negative integer, got %S\n" n;
            exit 2);
        parse_flags rest
    | other -> other
  in
  let args = parse_flags args in
  let requested =
    match args with [] -> List.map fst targets | some -> some
  in
  print_endline
    "Swala reproduction benchmarks (HPDC 1998). Absolute times are from the \
     simulated substrate;\ncompare shapes with the paper as recorded in \
     EXPERIMENTS.md.\n";
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f ->
          Printf.printf "=== %s ===\n%!" name;
          current_target := name;
          csv_counter := 0;
          let t0 = Sys.time () in
          f ();
          Printf.printf "(%s regenerated in %.1f s of host CPU)\n\n%!" name
            (Sys.time () -. t0)
      | None ->
          Printf.eprintf
            "unknown target %S; available: %s\n" name
            (String.concat ", " (List.map fst targets));
          exit 2)
    requested
