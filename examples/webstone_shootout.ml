(* A WebStone-style shoot-out between the three server models (paper §5.1):
   Swala (threaded, mmap I/O), NCSA-HTTPd-like (process per request) and
   Netscape-Enterprise-like (threaded, cheapest accept path).

   Run with:  dune exec examples/webstone_shootout.exe *)

let () =
  let seed = 7 in
  let client_counts = [ 8; 32; 96 ] in
  let run clients model =
    let trace = Workload.Webstone.file_trace ~seed ~n:(clients * 30) in
    let cfg =
      Swala.Config.make ~cache_mode:Swala.Config.Disabled ~model
        ~threads_per_node:(Stdlib.max 16 clients) ~seed ()
    in
    Swala.Cluster_runner.mean_response
      (Swala.Cluster_runner.run cfg ~trace ~n_streams:clients ())
  in
  Metrics.Table.(
    print
      (of_rows
         ~title:"WebStone file mix: mean response time (s) by server model"
         [
           right "# clients" fmt_i;
           right "HTTPd" (fun c -> fmt_f (run c Swala.Config.httpd_model));
           right "Enterprise" (fun c ->
               fmt_f (run c Swala.Config.enterprise_model));
           right "Swala" (fun c -> fmt_f (run c Swala.Config.swala_model));
         ]
         client_counts));
  print_endline
    "The process-per-request model (HTTPd) trails the threaded servers; \
     Enterprise wins at low\nclient counts and loses at high ones - the \
     shape of the paper's Table 2.";
  print_newline ();

  (* The null-CGI comparison (paper Figure 3): invocation overhead only. *)
  let f = Swala.Experiments.figure3 ~seed ~requests_per_client:20 () in
  Metrics.Table.(
    print
      (of_rows ~title:"Null CGI, 24 concurrent clients (s)"
         [ left "Configuration" fst; right "Mean" (fun (_, v) -> fmt_f v) ]
         [
           ("Enterprise", f.Swala.Experiments.enterprise_f3);
           ("HTTPd", f.Swala.Experiments.httpd_f3);
           ("Swala (no cache)", f.Swala.Experiments.swala_no_cache);
           ("Swala (remote cache hit)", f.Swala.Experiments.swala_remote);
           ("Swala (local cache hit)", f.Swala.Experiments.swala_local);
         ]))
