(* Sweep: the Domain-pool map behind --jobs.

   The contract under test is determinism: for any [jobs], [Sweep.map]
   returns element-for-element the same array as the sequential map —
   order preserved, no point dropped or duplicated, work claimed
   dynamically. The cluster test is the end-to-end version: whole
   simulation runs (engine, RNGs, domain-local current-engine slot) on
   2 and 4 domains must serialize to byte-identical metrics JSON as the
   single-domain run, which is what makes `swala_sim run --seeds N
   --jobs M` and the parallel ablations trustworthy. *)

let test_order_preserved () =
  let items = Array.init 37 (fun i -> i) in
  let f i = Printf.sprintf "p%d" (i * i) in
  let seq = Array.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (array string))
        (Printf.sprintf "jobs=%d equals sequential" jobs)
        seq
        (Sim.Sweep.map ~jobs f items))
    [ 1; 2; 4; 8 ]

let test_more_jobs_than_points () =
  Alcotest.(check (array int))
    "jobs clamped to point count" [| 2; 4 |]
    (Sim.Sweep.map ~jobs:16 (fun x -> 2 * x) [| 1; 2 |]);
  Alcotest.(check (array int)) "empty input" [||]
    (Sim.Sweep.map ~jobs:4 (fun x -> x) [||])

let test_map_list () =
  Alcotest.(check (list int))
    "map_list matches List.map" [ 2; 3; 4 ]
    (Sim.Sweep.map_list ~jobs:2 succ [ 1; 2; 3 ])

exception Boom

(* Every path wraps the failure: domains, one domain ([~jobs:1]), and a
   one-item array, which runs sequentially whatever [jobs] asks. *)
let test_worker_exception () =
  List.iter
    (fun (jobs, n) ->
      match
        Sim.Sweep.map ~jobs
          (fun i -> if i = n / 2 then raise Boom else i)
          (Array.init n (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs %d, %d items: expected Sweep.Worker" jobs n
      | exception Sim.Sweep.Worker (Boom, _) -> ())
    [ (2, 10); (1, 10); (4, 1) ]

(* One small cooperative-cache run per seed; JSON output on 2 and 4
   domains must be byte-identical to the sequential run. *)
let run_seed sd =
  let trace = Workload.Synthetic.coop ~seed:sd ~n:80 ~n_unique:20 ~n_hot:8 () in
  let cfg =
    Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative
      ~cache_threshold:0.001 ~seed:sd ()
  in
  let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:4 () in
  Swala.Cluster_runner.result_to_json r

let test_cluster_runs_identical () =
  let seeds = [ 42; 43; 44; 45 ] in
  let sequential = List.map run_seed seeds in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d JSON identical to sequential" jobs)
        sequential
        (Sim.Sweep.map_list ~jobs run_seed seeds))
    [ 2; 4 ]

let () =
  Alcotest.run "sweep"
    [
      ( "map",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "jobs > points" `Quick test_more_jobs_than_points;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "worker exception" `Quick test_worker_exception;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cluster runs byte-identical" `Quick
            test_cluster_runs_identical;
        ] );
    ]
