(* Cache warm-up transient.

   A cooperative cache starts cold: early requests all execute their CGIs,
   later ones increasingly hit. This example buckets client-observed
   response times into 5 s windows ([Metrics.Timeline]) and prints the curve
   as a crude terminal plot — cold vs pre-warmed cluster side by side.

   Run with:  dune exec examples/warmup_curve.exe *)

let () =
  let seed = 31 in
  let trace =
    Workload.Synthetic.coop ~seed ~n:2_400 ~n_unique:400 ~n_hot:60
      ~locality:1.0 ()
  in
  let cfg = Swala.Config.make ~n_nodes:4 ~seed () in
  let run ~warm =
    (* 256 buckets of 5 s cover the roughly 120 s run without a merge. *)
    let ts = Metrics.Timeline.create ~interval:5.0 () in
    let warmup cluster =
      if warm then begin
        (* Preload every distinct request, spread over the nodes. *)
        let seen = Hashtbl.create 256 in
        List.iter
          (fun item ->
            let key = Workload.Trace.key item in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              Swala.Server.preload cluster
                ~node:(Hashtbl.length seen mod 4)
                (Workload.Trace.to_request item)
                ~exec_time:1.0
            end)
          trace;
        Sim.Engine.delay 0.1
      end
    in
    let result =
      Swala.Cluster_runner.run cfg ~trace ~n_streams:16 ~warmup
        ~observe:(fun ~time dt -> Metrics.Timeline.record ts ~time dt)
        ()
    in
    (ts, result)
  in
  let cold_ts, cold = run ~warm:false in
  let warm_ts, warm = run ~warm:true in
  Printf.printf
    "Mean response: cold start %.2f s, pre-warmed %.2f s (workload: 2400 \
     requests, 400 unique).\n\n"
    (Swala.Cluster_runner.mean_response cold)
    (Swala.Cluster_runner.mean_response warm);
  let bar v vmax =
    let cells = int_of_float (Float.round (40. *. v /. vmax)) in
    String.make (Stdlib.max 0 (Stdlib.min 40 cells)) '#'
  in
  let means tl =
    Array.map
      (fun (b : Metrics.Timeline.bucket) -> b.Metrics.Timeline.mean)
      (Metrics.Timeline.buckets tl)
  in
  let cold_means = means cold_ts in
  let warm_means = means warm_ts in
  let vmax =
    Array.fold_left
      (fun acc v -> if Float.is_nan v then acc else Float.max acc v)
      0.1 cold_means
  in
  Printf.printf "%-10s %-6s %-42s %-6s\n" "window" "cold" "" "warm";
  let n = Stdlib.max (Array.length cold_means) (Array.length warm_means) in
  for i = 0 to n - 1 do
    let get a = if i < Array.length a && not (Float.is_nan a.(i)) then a.(i) else 0. in
    let c = get cold_means and w = get warm_means in
    Printf.printf "%3.0f-%3.0fs  %6.2f %-42s %6.2f %s\n"
      (float_of_int i *. 5.)
      (float_of_int (i + 1) *. 5.)
      c
      (bar c vmax) w (bar w vmax)
  done;
  print_newline ();
  print_endline
    "The cold cluster's first windows run every CGI; as the hot set gets \
     cached the curve falls\nto the pre-warmed level - the transient the \
     paper's steady-state tables do not show."
