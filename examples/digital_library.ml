(* The paper's motivating scenario: a digital-library web site whose CGI
   queries dominate service time (Alexandria Digital Library, §3).

   Replays an ADL-like synthetic trace against a 4-node cluster in the
   three cache modes and reports what cooperative caching buys.

   Run with:  dune exec examples/digital_library.exe *)

let () =
  let seed = 2024 in
  let trace = Workload.Synthetic.adl_scaled ~seed ~n:4_000 in
  let summary = Workload.Analyzer.summarize trace in
  Printf.printf
    "Digital-library workload: %d requests, %.1f%% CGI, mean CGI %.2f s, \
     CGI is %.0f%% of service time.\n\n"
    summary.Workload.Analyzer.n_total
    (100. *. summary.Workload.Analyzer.cgi_fraction)
    summary.Workload.Analyzer.mean_cgi_time
    (100. *. summary.Workload.Analyzer.cgi_time_fraction);

  let run mode =
    let cfg = Swala.Config.make ~n_nodes:4 ~cache_mode:mode ~seed () in
    Swala.Cluster_runner.run cfg ~trace ~n_streams:16 ()
  in
  let results =
    List.map
      (fun mode -> (mode, run mode))
      Swala.Config.[ Disabled; Standalone; Cooperative ]
  in
  let module R = Swala.Cluster_runner in
  Metrics.Table.(
    print
      (of_rows ~title:"4-node cluster, 16 client threads"
         [
           left "Mode" (fun (mode, _) ->
               Swala.Config.cache_mode_to_string mode);
           right "Mean response (s)" (fun (_, r) -> fmt_f (R.mean_response r));
           right "p95 (s)" (fun (_, r) ->
               fmt_f (Metrics.Sample.quantile r.R.response 0.95));
           right "Cache hits" (fun (_, r) -> fmt_i r.R.hits);
           right "CGI execs" (fun (_, r) ->
               fmt_i
                 (Metrics.Counter.get r.R.counters Swala.Server.K.cgi_execs));
         ]
         results));
  let mean mode = R.mean_response (List.assoc mode results) in
  let baseline = mean Swala.Config.Disabled in
  Printf.printf
    "Cooperative caching cuts mean response time by %.0f%% versus no \
     caching on this trace.\n"
    (100. *. ((baseline -. mean Swala.Config.Cooperative) /. baseline))
