(* Plain-text summaries of a traced run, shared by the CLI
   ([--trace-breakdown]) and the bench harness. All statistics degrade to
   "-" on empty data instead of crashing. *)

let fmt_ms v = Metrics.Table.fmt_f ~decimals:3 (v *. 1000.)

let breakdown_table tr ~root =
  let module T = Metrics.Trace in
  let b = T.breakdown tr ~root in
  Metrics.Table.(
    of_rows
      ~title:(Printf.sprintf "Latency breakdown (%d %s trees)" b.T.n_roots root)
      [
        left "phase" (fun p -> p.T.phase);
        right "reqs" (fun p -> fmt_i p.T.requests);
        right "occur" (fun p -> fmt_i p.T.occurrences);
        right "total ms" (fun p -> fmt_ms p.T.total);
        right "mean ms" (fun p -> fmt_ms p.T.mean);
        right "p50 ms" (fun p -> fmt_ms p.T.p50);
        right "p99 ms" (fun p -> fmt_ms p.T.p99);
        right "share" (fun p -> fmt_pct ~decimals:1 p.T.share);
      ]
      b.T.phases)

let histogram_table hists =
  let module H = Metrics.Histogram in
  (* Waits are times (report in ms); depth/queue histograms are counts. *)
  let fmt name v =
    let is_depth =
      let n = String.length name in
      (n >= 6 && String.sub name (n - 6) 6 = ".queue")
      || (n >= 6 && String.sub name (n - 6) 6 = ".depth")
    in
    if is_depth then Metrics.Table.fmt_f ~decimals:1 v else fmt_ms v
  in
  let stat f (name, h) = match f h with None -> "-" | Some v -> fmt name v in
  Metrics.Table.(
    of_rows ~title:"Contention (acquire waits and queue depths)"
      [
        left "histogram" fst;
        right "n" (fun (_, h) -> fmt_i (H.count h));
        right "mean"
          (stat (fun h -> if H.count h = 0 then None else Some (H.mean h)));
        right "p50" (stat (fun h -> H.quantile_opt h 0.5));
        right "p99" (stat (fun h -> H.quantile_opt h 0.99));
        right "max" (stat H.max_opt);
      ]
      hists)
