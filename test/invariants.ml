(* Invariants every replay keeps, whatever its configuration: each
   request is answered, and each ends exactly one way. *)

let check_run what (r : Swala.Cluster_runner.result) =
  let module K = Swala.Server.K in
  let g = Metrics.Counter.get r.counters in
  Alcotest.(check int)
    (what ^ ": every request answered")
    r.n_requests
    (Metrics.Sample.count r.response);
  Alcotest.(check int)
    (what ^ ": each request ends exactly one way")
    (g K.requests)
    (g K.rejected_down + g K.not_found + g K.file_fetches + g K.hit_local
   + g K.hit_remote + g K.cgi_execs)

(* [check_rows label rows] checks the run of every [(point, result)] row
   of an ablation, naming a failing row by its position. *)
let check_rows label rows =
  List.iteri
    (fun i (_, r) -> check_run (Printf.sprintf "%s, row %d" label i) r)
    rows
