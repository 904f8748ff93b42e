(* Offline access-log analyzer: reproduces the paper's §3 study (Table 1)
   over any trace in logfmt (see `swala_sim gen`). *)

open Cmdliner

let file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"Trace file in logfmt.")

let thresholds_t =
  Arg.(
    value
    & opt (list float) [ 0.5; 1.0; 2.0; 4.0 ]
    & info [ "t"; "thresholds" ] ~docv:"T1,T2,..."
        ~doc:"Execution-time thresholds in seconds.")

let format_t =
  Arg.(
    value & opt string "logfmt"
    & info [ "format" ] ~docv:"F"
        ~doc:
          "Input format: logfmt (swala_sim gen) or clf (Common Log Format, \
           optionally with a trailing service-time field).")

let read_trace path format =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match format with
      | "logfmt" -> Workload.Logfmt.of_string text
      | "clf" ->
          let trace, stats = Workload.Clf.to_trace text in
          Printf.printf
            "CLF import: %d kept, %d non-GET skipped, %d non-2xx skipped, \
             %d malformed.\n\n"
            stats.Workload.Clf.kept stats.Workload.Clf.skipped_method
            stats.Workload.Clf.skipped_status stats.Workload.Clf.malformed;
          Ok trace
      | other -> Error (Printf.sprintf "unknown format %S" other))

let analyze_impl path thresholds format =
  match read_trace path format with
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 1
  | Ok trace ->
      let s = Workload.Analyzer.summarize trace in
      Printf.printf
        "%d requests, %d CGI (%.1f%%); total service %.0f s; mean response \
         %.2f s;\nmean file %.3f s; mean CGI %.2f s; CGI share of service \
         time %.1f%%; longest %.1f s\n\n"
        s.Workload.Analyzer.n_total s.Workload.Analyzer.n_cgi
        (100. *. s.Workload.Analyzer.cgi_fraction)
        s.Workload.Analyzer.total_service s.Workload.Analyzer.mean_response
        s.Workload.Analyzer.mean_file_time s.Workload.Analyzer.mean_cgi_time
        (100. *. s.Workload.Analyzer.cgi_time_fraction)
        s.Workload.Analyzer.longest;
      let module A = Workload.Analyzer in
      Metrics.Table.(
        print
          (of_rows ~title:"Potential time saving by caching CGI"
             [
               left "Threshold" (fun r ->
                   Printf.sprintf "%.1f s" r.A.threshold);
               right "#long" (fun r -> fmt_i r.A.n_long);
               right "Repeats" (fun r -> fmt_i r.A.total_repeats);
               right "Uniq. repeats" (fun r -> fmt_i r.A.unique_repeats);
               right "Time saved" (fun r ->
                   Printf.sprintf "%.0f s" r.A.time_saved);
               right "Saved %" (fun r -> fmt_pct r.A.saved_fraction);
             ]
             (A.table1 trace ~thresholds)));
      Printf.printf "Upper bound on cache hits (infinite cache): %d\n"
        (Workload.Analyzer.upper_bound_hits trace)

let () =
  let doc = "Analyze a web-server access trace for cacheable CGI repetition." in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "loganalyze" ~doc)
          Term.(const analyze_impl $ file_t $ thresholds_t $ format_t)))
