(* Replacement-policy comparison under cache overflow.

   The paper's §3 notes the threshold/cache-size trade-off and defers its five
   replacement methods to a tech report; this example runs ablation A1
   ([Swala.Experiments.ablation_policy]), the whole policy family on the
   Table-6 workload (per-node cache far smaller than the working set), and
   shows which policies keep the valuable entries.

   Run with:  dune exec examples/policy_ablation.exe *)

let () =
  let upper, results = Swala.Experiments.ablation_policy ~seed:123 () in
  Printf.printf
    "Workload: 1600 CGI requests over 1122 distinct queries; at most %d \
     hits are possible.\nPer-node cache: 20 entries on a 4-node cooperative \
     cluster (aggregate 80 << 1122).\n\n"
    upper;
  let module R = Swala.Cluster_runner in
  Metrics.Table.(
    print
      (of_rows ~title:"Replacement policy vs achieved hits"
         [
           left "Policy" (fun (policy, _) -> Cache.Policy.to_string policy);
           right "Hits" (fun (_, r) -> fmt_i r.R.hits);
           right "% of possible" (fun (_, r) ->
               fmt_pct (float_of_int r.R.hits /. float_of_int upper));
           right "Mean response (s)" (fun (_, r) -> fmt_f (R.mean_response r));
         ]
         results));
  let best = ref (Cache.Policy.Lru, 0) in
  List.iter
    (fun (policy, r) ->
      if r.R.hits > snd !best then best := (policy, r.R.hits))
    results;
  Printf.printf
    "Best policy on this workload: %s. Frequency+cost aware policies keep \
     hot, expensive results;\nsize-based eviction throws them away.\n"
    (Cache.Policy.to_string (fst !best))
