(* Invariants every metadata plane keeps, with and without a crash plan:
   each request is answered and accounted for exactly once (the shared
   [Invariants.check_run]), a replay is byte-identical, and a cluster
   without a directory takes no directory locks. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let modes =
  [
    ("no-cache", Swala.Config.Disabled, Swala.Config.Replicated);
    ("standalone", Swala.Config.Standalone, Swala.Config.Replicated);
    ("replicated", Swala.Config.Cooperative, Swala.Config.Replicated);
    ("sharded", Swala.Config.Cooperative, Swala.Config.Sharded);
  ]

let config ~cache_mode ~dir_mode ~crash =
  let fault, fetch_timeout =
    if crash then
      ( Some (Sim.Fault.make ~node_schedules:[ (1, [ (3., 8.) ]) ] ()),
        Some 0.5 )
    else (None, None)
  in
  Swala.Config.make ~n_nodes:4 ~cache_mode ~dir_mode ~default_ttl:(Some 2.)
    ~hotspot_threshold:(if dir_mode = Swala.Config.Sharded then 1. else 0.)
    ~fault ~fetch_timeout ~seed:3 ()

let run cfg trace =
  let cluster = ref None in
  let r =
    Swala.Cluster_runner.run cfg ~trace ~n_streams:8
      ~warmup:(fun c -> cluster := Some c)
      ()
  in
  match !cluster with
  | Some c -> (r, c)
  | None -> Alcotest.fail "the warm-up hook did not run"

let plane_name = function
  | Swala.Server.Local -> "local"
  | Swala.Server.Replicated _ -> "replicated"
  | Swala.Server.Sharded _ -> "sharded"

let test_plane_invariants () =
  let trace =
    Workload.Synthetic.coop ~seed:3 ~n:400 ~n_unique:160 ~n_hot:20 ()
  in
  List.iter
    (fun (name, cache_mode, dir_mode) ->
      List.iter
        (fun crash ->
          let what = Printf.sprintf "%s%s" name (if crash then " + crash" else "") in
          let cfg = config ~cache_mode ~dir_mode ~crash in
          let r, cluster = run cfg trace in
          let module R = Swala.Cluster_runner in
          Invariants.check_run what r;
          let r2, _ = run cfg trace in
          Alcotest.(check string)
            (what ^ ": replay is byte-identical")
            (R.result_to_json r) (R.result_to_json r2);
          Alcotest.(check string)
            (what ^ ": plane")
            (match (cache_mode, dir_mode) with
            | Swala.Config.Cooperative, Swala.Config.Replicated -> "replicated"
            | Swala.Config.Cooperative, Swala.Config.Sharded -> "sharded"
            | (Swala.Config.Disabled | Swala.Config.Standalone), _ -> "local")
            (plane_name (Swala.Server.plane cluster));
          if cache_mode <> Swala.Config.Cooperative then begin
            let rd, wr = r.R.dir_locks in
            check_int (what ^ ": no read locks") 0 rd;
            check_int (what ^ ": no write locks") 0 wr
          end;
          if crash then
            check_bool (what ^ ": the crash happened") true
              (Metrics.Counter.get r.R.counters Swala.Server.K.crashes > 0))
        [ false; true ])
    modes

let () =
  Alcotest.run "planes"
    [
      ( "invariants",
        [
          Alcotest.test_case "answered, conserved, replayed, lock-free" `Quick
            test_plane_invariants;
        ] );
    ]
