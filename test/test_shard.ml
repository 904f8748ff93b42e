(* Tests for the sharded metadata plane: consistent-hash ring mapping
   determinism, configuration validation, hotspot promote/demote
   hysteresis, the replicated plane's untouched default path, shard
   handoff across a crash/restart window, partition -> heal shard
   convergence, lookup-path conservation, a 50-seed sweep, and the
   stale-hint invalidation regression. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let in_engine f =
  let eng = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (f ()));
  Sim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "process did not run"

let meta ?(owner = 0) ?(size = 100) ?(created = 0.) ?expires key =
  Cache.Meta.make ~key ~owner ~size ~exec_time:0.5 ~created ~expires

let key_of i = Printf.sprintf "GET /cgi-bin/query?q=k%d" i

(* ------------------------------------------------------------------ *)
(* Ring: deterministic mapping, distinct successors, liveness routing *)

let test_ring_deterministic () =
  let a = Cache.Ring.create ~nodes:8 ~vnodes:64
  and b = Cache.Ring.create ~nodes:8 ~vnodes:64 in
  for i = 0 to 1999 do
    let key = key_of i in
    let o = Cache.Ring.owner a key in
    check_bool "owner in range" true (o >= 0 && o < 8);
    check_int (Printf.sprintf "same owner for %s" key) o
      (Cache.Ring.owner b key)
  done;
  (* The mapping must not depend on any ambient state: a third ring built
     after unrelated hashing agrees too. *)
  let c = Cache.Ring.create ~nodes:8 ~vnodes:64 in
  check_int "rebuilt ring agrees" (Cache.Ring.owner a "GET /x")
    (Cache.Ring.owner c "GET /x")

let test_ring_successors () =
  let r = Cache.Ring.create ~nodes:6 ~vnodes:32 in
  for i = 0 to 199 do
    let key = key_of i in
    let succ = Cache.Ring.successors r key ~k:4 in
    check_int "k distinct successors" 4
      (List.length (List.sort_uniq compare succ));
    check_int "head is the owner" (Cache.Ring.owner r key) (List.hd succ)
  done;
  check_int "k beyond n saturates at n" 6
    (List.length (Cache.Ring.successors r "GET /x" ~k:99));
  expect_invalid "k = 0" (fun () ->
      ignore (Cache.Ring.successors r "GET /x" ~k:0 : int list))

let test_ring_acting_owner () =
  let r = Cache.Ring.create ~nodes:4 ~vnodes:64 in
  let key = "GET /cgi-bin/query?q=hot" in
  let home = Cache.Ring.owner r key in
  check_bool "all up: acting = owner" true
    (Cache.Ring.acting_owner r ~up:(fun _ -> true) key = Some home);
  (* With the home down, the acting owner is the next distinct successor
     — and deterministic. *)
  (match Cache.Ring.acting_owner r ~up:(fun i -> i <> home) key with
  | Some a ->
      check_bool "acting owner skips the dead home" true (a <> home);
      check_int "acting owner is the next successor" a
        (List.nth (Cache.Ring.successors r key ~k:2) 1)
  | None -> Alcotest.fail "three live nodes but no acting owner");
  check_bool "all down: no acting owner" true
    (Cache.Ring.acting_owner r ~up:(fun _ -> false) key = None)

let test_ring_spread () =
  let nodes = 8 in
  let r = Cache.Ring.create ~nodes ~vnodes:64 in
  let keys = List.init 8000 key_of in
  let spread = Cache.Ring.spread r ~keys in
  check_int "spread counts every key" 8000 (Array.fold_left ( + ) 0 spread);
  let mean = 8000 / nodes in
  Array.iteri
    (fun i n ->
      if n < mean / 3 || n > mean * 3 then
        Alcotest.failf "node %d homes %d of 8000 keys (mean %d): vnodes \
                        failed to smooth the ring" i n mean)
    spread

(* The ring as it was first built: one [Printf]-made "vn:N:V" string per
   point, hashed by FNV-1a, and the (hash, node) pairs sorted by
   polymorphic compare. A key's start point is found by a linear scan,
   and every query walks the whole circle. [Cache.Ring] builds its
   points without strings and searches flat arrays; it must give the
   same answers. *)
module Ring_ref = struct
  type t = { points : (int * int) array; nodes : int }

  let fnv1a s =
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c ->
        h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFFFFFFFFF)
      s;
    !h

  let create ~nodes ~vnodes =
    let points = Array.make (nodes * vnodes) (0, 0) in
    for n = 0 to nodes - 1 do
      for v = 0 to vnodes - 1 do
        points.((n * vnodes) + v) <- (fnv1a (Printf.sprintf "vn:%d:%d" n v), n)
      done
    done;
    Array.sort compare points;
    { points; nodes }

  (* The distinct nodes met walking clockwise from the first point at or
     after the key's hash. *)
  let walk t key =
    let n = Array.length t.points in
    let h = fnv1a key in
    let rec start i =
      if i = n then 0 else if fst t.points.(i) >= h then i else start (i + 1)
    in
    let s = start 0 in
    let seen = Array.make t.nodes false in
    List.filter_map
      (fun i ->
        let node = snd t.points.((s + i) mod n) in
        if seen.(node) then None
        else begin
          seen.(node) <- true;
          Some node
        end)
      (List.init n Fun.id)

  let successors t key ~k = List.filteri (fun i _ -> i < k) (walk t key)
  let acting_owner t ~up key = List.find_opt up (walk t key)
end

let test_ring_matches_reference () =
  let rs = Random.State.make [| 29 |] in
  let random_key () =
    String.init (Random.State.int rs 40) (fun _ ->
        Char.chr (Random.State.int rs 256))
  in
  List.iter
    (fun (nodes, vnodes) ->
      let r = Cache.Ring.create ~nodes ~vnodes
      and ref_ = Ring_ref.create ~nodes ~vnodes in
      for i = 0 to 99 do
        let key = if i mod 2 = 0 then key_of i else random_key () in
        let what =
          Printf.sprintf "%d nodes x %d vnodes, key %S" nodes vnodes key
        in
        let walk = Ring_ref.walk ref_ key in
        check_int (what ^ ": owner") (List.hd walk) (Cache.Ring.owner r key);
        let k = 1 + Random.State.int rs (nodes + 1) in
        Alcotest.(check (list int))
          (Printf.sprintf "%s: successors ~k:%d" what k)
          (Ring_ref.successors ref_ key ~k)
          (Cache.Ring.successors r key ~k);
        let down = Array.init nodes (fun _ -> Random.State.int rs 3 = 0) in
        let down = if i mod 10 = 9 then Array.make nodes true else down in
        let up node = not down.(node) in
        Alcotest.(check (option int))
          (what ^ ": acting owner")
          (Ring_ref.acting_owner ref_ ~up key)
          (Cache.Ring.acting_owner r ~up key)
      done)
    [ (1, 1); (1, 64); (2, 1); (3, 7); (8, 1); (8, 64); (37, 16); (100, 64) ]

(* ------------------------------------------------------------------ *)
(* Configuration validation *)

let test_shard_config_validation () =
  let valid cfg = Swala.Config.validate cfg in
  let sharded ?(mode = Swala.Config.Cooperative) f =
    f (fun ?batch_max ?batch_flush_interval ?dir_hints ?anti_entropy_period
           ?consistency ?hotspot_threshold () ->
          Swala.Config.make ~n_nodes:4 ~cache_mode:mode
            ~dir_mode:Swala.Config.Sharded ?batch_max ?batch_flush_interval
            ?dir_hints ?anti_entropy_period ?consistency ?hotspot_threshold ())
  in
  sharded (fun make -> valid (make ()));
  sharded (fun make ->
      expect_invalid "sharded + batching" (fun () ->
          valid (make ~batch_max:8 ~batch_flush_interval:(Some 0.01) ())));
  sharded (fun make ->
      expect_invalid "sharded + hints" (fun () ->
          valid (make ~dir_hints:true ())));
  sharded (fun make ->
      expect_invalid "sharded + anti-entropy" (fun () ->
          valid (make ~anti_entropy_period:(Some 1.0) ())));
  sharded (fun make ->
      expect_invalid "sharded + strong consistency" (fun () ->
          valid (make ~consistency:Swala.Config.Strong ())));
  expect_invalid "hotspot on the replicated plane" (fun () ->
      valid
        (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
           ~hotspot_threshold:2.0 ()));
  expect_invalid "zero vnodes" (fun () ->
      valid
        (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
           ~dir_mode:Swala.Config.Sharded ~shard_vnodes:0 ()))

(* ------------------------------------------------------------------ *)
(* Hotspot detector: promote at T, demote below T/2, only via sweep *)

let test_hotspot_hysteresis () =
  let h = Cache.Hotspot.create ~threshold:2.0 ~window:2.0 in
  let key = "GET /cgi-bin/query?q=hot" in
  (* A burst well over the threshold promotes exactly once. *)
  let promotions = ref 0 in
  for i = 0 to 9 do
    match Cache.Hotspot.record h ~now:(0.1 *. float_of_int i) key with
    | `Promoted -> incr promotions
    | `Noted -> ()
  done;
  check_int "the crossing promotes exactly once" 1 !promotions;
  check_bool "key is hot" true (Cache.Hotspot.is_hot h key);
  (* A trickle above T/2 keeps it hot through a sweep (hysteresis)... *)
  ignore (Cache.Hotspot.record h ~now:2.2 key : [ `Promoted | `Noted ]);
  ignore (Cache.Hotspot.record h ~now:2.6 key : [ `Promoted | `Noted ]);
  Alcotest.(check (list string)) "mid-rate sweep demotes nothing" []
    (Cache.Hotspot.sweep h ~now:3.0);
  check_bool "still hot after the sweep" true (Cache.Hotspot.is_hot h key);
  (* ...and without a sweep nothing ever demotes, however long idle. *)
  check_bool "no auto-demotion between sweeps" true
    (Cache.Hotspot.is_hot h key);
  (* A sweep after the key went fully cold demotes it. *)
  Alcotest.(check (list string)) "cold sweep demotes the key" [ key ]
    (Cache.Hotspot.sweep h ~now:60.0);
  check_bool "demoted" false (Cache.Hotspot.is_hot h key);
  check_int "no hot keys left" 0 (Cache.Hotspot.hot_count h);
  (* The cycle can repeat: a fresh burst re-promotes. *)
  promotions := 0;
  for i = 0 to 9 do
    match Cache.Hotspot.record h ~now:(100. +. (0.1 *. float_of_int i)) key with
    | `Promoted -> incr promotions
    | `Noted -> ()
  done;
  check_int "re-promotion after demotion" 1 !promotions

let test_hotspot_slow_key_never_promotes () =
  let h = Cache.Hotspot.create ~threshold:2.0 ~window:2.0 in
  for i = 0 to 9 do
    match Cache.Hotspot.record h ~now:(2.0 *. float_of_int i) "GET /cold" with
    | `Promoted -> Alcotest.fail "a 0.5/s key crossed a 2/s threshold"
    | `Noted -> ()
  done;
  check_bool "cold key stays cold" false (Cache.Hotspot.is_hot h "GET /cold")

let test_hotspot_forget () =
  let h = Cache.Hotspot.create ~threshold:1.0 ~window:1.0 in
  for i = 0 to 4 do
    ignore
      (Cache.Hotspot.record h ~now:(0.1 *. float_of_int i) "GET /k"
        : [ `Promoted | `Noted ])
  done;
  check_bool "hot before forget" true (Cache.Hotspot.is_hot h "GET /k");
  check_bool "forgetting a hot key reports it" true
    (Cache.Hotspot.forget h "GET /k");
  check_bool "forgotten" false (Cache.Hotspot.is_hot h "GET /k");
  check_bool "forgetting a cold key reports false" false
    (Cache.Hotspot.forget h "GET /never")

(* ------------------------------------------------------------------ *)
(* Regression: a false hint must invalidate the stale hint entry, so
   repeated lookups of the same dead key pay the fallback only once. *)

let test_false_hint_invalidated () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:4 ~hints:true () in
      Cache.Directory.insert d ~node:1 (meta ~owner:1 ~expires:1. "k");
      check_bool "expired entry is absent" true
        (Cache.Directory.lookup_from d ~self:0 ~now:5. "k" = None);
      let _, false_hints = Cache.Directory.hint_stats d in
      check_int "first lookup pays the false hint" 1 false_hints;
      (* The hint died with that lookup: further lookups are plain
         hint-less scans, not false hints, however many run. *)
      for _ = 1 to 5 do
        ignore (Cache.Directory.lookup_from d ~self:0 ~now:5. "k")
      done;
      let _, false_hints = Cache.Directory.hint_stats d in
      check_int "the stale hint was invalidated, not re-probed" 1 false_hints;
      (* A fresh insert re-hints the key and lookups work again. *)
      Cache.Directory.insert d ~node:3 (meta ~owner:3 "k");
      match Cache.Directory.lookup_from d ~self:0 ~now:5. "k" with
      | Some m -> check_int "re-hinted lookup finds the live copy" 3
                    m.Cache.Meta.owner
      | None -> Alcotest.fail "re-inserted key not found")

(* ------------------------------------------------------------------ *)
(* Cluster level *)

let coop_trace ~seed ~n =
  Workload.Synthetic.coop ~seed ~n ~n_unique:(n * 7 / 10) ~n_hot:(n / 10) ()

let counters_equal msg a b =
  check_bool (msg ^ ": Counter.equal") true (Metrics.Counter.equal a b);
  let names = Metrics.Counter.names a in
  Alcotest.(check (list string)) (msg ^ ": same counter set") names
    (Metrics.Counter.names b);
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "%s: counter %s" msg n)
        (Metrics.Counter.get a n) (Metrics.Counter.get b n))
    names

let query q = Http.Request.get (Printf.sprintf "/cgi-bin/query?q=%s&xd=0.2" q)

let run_cluster_script ~cfg ~registry ?(n_client_endpoints = 2) script =
  let engine = Sim.Engine.create () in
  let cluster =
    Swala.Server.create_cluster engine cfg ~registry ~n_client_endpoints
  in
  Swala.Server.start cluster;
  Sim.Engine.spawn engine (fun () ->
      script cluster;
      Swala.Server.stop cluster);
  Sim.Engine.run engine;
  cluster

(* The default (replicated) plane must carry no trace of the sharded
   machinery: no sharded counters, no forwarded lookups, and the
   directory accessor still works — while a sharded node refuses it. *)
let test_replicated_untouched () =
  let trace = coop_trace ~seed:7 ~n:400 in
  let r =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~seed:7 ())
      ~trace ~n_streams:8 ()
  in
  Alcotest.(check string) "mode string" "replicated"
    r.Swala.Cluster_runner.dir_mode;
  List.iter
    (fun name ->
      check_int (Printf.sprintf "replicated run has zero %s" name) 0
        (Metrics.Counter.get r.Swala.Cluster_runner.counters name))
    [
      Swala.Server.K.shard_local_lookups;
      Swala.Server.K.shard_fwd_lookups;
      Swala.Server.K.shard_replica_hits;
      Swala.Server.K.dir_lookup_msgs;
      Swala.Server.K.dir_lookup_timeouts;
      Swala.Server.K.lcache_pos_hits;
      Swala.Server.K.hotspot_promotions;
      Swala.Server.K.shard_handoff_reannounced;
      Swala.Server.K.shard_pruned;
    ];
  check_int "no forwarded waits on the replicated plane" 0
    (Metrics.Histogram.count r.Swala.Cluster_runner.forward_wait);
  check_bool "every node holds the full key population" true
    (Array.for_all
       (fun n -> n = r.Swala.Cluster_runner.dir_entries.(0))
       r.Swala.Cluster_runner.dir_entries)

(* Same seed, same sharded+hotspot config: two runs agree on every
   counter — the new plane does not perturb determinism. *)
let test_sharded_replay_deterministic () =
  let trace = coop_trace ~seed:13 ~n:400 in
  let run () =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~dir_mode:Swala.Config.Sharded ~hotspot_threshold:1.0
         ~hotspot_window:1.0 ~seed:13 ())
      ~trace ~n_streams:8 ()
  in
  let a = run () and b = run () in
  check_float "same makespan" a.Swala.Cluster_runner.duration
    b.Swala.Cluster_runner.duration;
  counters_equal "sharded replay" a.Swala.Cluster_runner.counters
    b.Swala.Cluster_runner.counters

(* Every cacheable cooperative CGI request resolves its directory lookup
   by exactly one of the five sharded paths. *)
let lookup_conservation msg n counters =
  let get = Metrics.Counter.get counters in
  check_int
    (msg ^ ": local + replica + lcache + forwarded = requests")
    n
    (get Swala.Server.K.shard_local_lookups
    + get Swala.Server.K.shard_replica_hits
    + get Swala.Server.K.lcache_pos_hits
    + get Swala.Server.K.lcache_neg_hits
    + get Swala.Server.K.shard_fwd_lookups)

let test_sharded_lookup_conservation () =
  let n = 500 in
  let trace = coop_trace ~seed:21 ~n in
  let r =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:5 ~cache_mode:Swala.Config.Cooperative
         ~dir_mode:Swala.Config.Sharded ~seed:21 ())
      ~trace ~n_streams:10 ()
  in
  check_int "every request answered" n
    (Metrics.Sample.count r.Swala.Cluster_runner.response);
  lookup_conservation "fault-free" n r.Swala.Cluster_runner.counters;
  (* Forwarded wire accounting: requests counted at requesters, replies
     at homes — two messages per completed round trip. *)
  let get = Metrics.Counter.get r.Swala.Cluster_runner.counters in
  check_int "two lookup messages per forwarded round trip"
    (2 * get Swala.Server.K.shard_fwd_lookups)
    (get Swala.Server.K.dir_lookup_msgs)

(* Handoff across a deterministic crash window: node 1 is down over
   [2 s, 4 s). While it is down its shard duties move to ring
   successors; after the restart they move back. At every probe point,
   each live node's cached entries are findable at the key's acting
   home, and no node's shard table holds keys it does not answer for. *)
let test_shard_handoff_crash_restart () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
      ~dir_mode:Swala.Config.Sharded
      ~fault:(Some (Sim.Fault.make ~node_schedules:[ (1, [ (2., 4.) ]) ] ()))
      ~fetch_timeout:(Some 0.5) ~seed:5 ()
  in
  let table cluster i = Swala.Sharded_plane.table (Planes.sharded cluster) i in
  let check_converged cluster msg =
    let up i = Swala.Server.node_up (Swala.Server.node cluster i) in
    let ring = Swala.Sharded_plane.ring (Planes.sharded cluster) in
    for i = 0 to 3 do
      if up i then begin
        let nd = Swala.Server.node cluster i in
        (* Every live cached entry is registered at its acting home. *)
        List.iter
          (fun key ->
            match Cache.Ring.acting_owner ring ~up key with
            | None -> Alcotest.fail "live node but no acting owner"
            | Some home -> (
                match Cache.Shard_table.find (table cluster home) key with
                | Some _ -> ()
                | None ->
                    Alcotest.failf
                      "%s: node %d caches %s but acting home %d has no \
                       entry"
                      msg i key home))
          (Cache.Store.keys (Swala.Server.node_store nd));
        (* And no live node squats on a shard it does not answer for
           (hotspot replication is off here). *)
        List.iter
          (fun (m : Cache.Meta.t) ->
            match Cache.Ring.acting_owner ring ~up m.Cache.Meta.key with
            | Some home when home = i -> ()
            | Some home ->
                Alcotest.failf
                  "%s: node %d's table holds %s, homed at %d" msg i
                  m.Cache.Meta.key home
            | None -> Alcotest.fail "live node but no acting owner")
          (Cache.Shard_table.entries (table cluster i))
      end
    done
  in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        (* 26 keys spread over the ring, cached at alternating nodes. *)
        List.iteri
          (fun i q ->
            Swala.Server.preload cluster ~node:(i mod 4)
              (query (String.make 1 q))
              ~exec_time:0.3)
          [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f'; 'g'; 'h'; 'i'; 'j'; 'k'; 'l';
            'm'; 'n'; 'o'; 'p'; 'q'; 'r'; 's'; 't'; 'u'; 'v'; 'w'; 'x';
            'y'; 'z' ];
        Sim.Engine.delay 1.0;
        check_converged cluster "before the crash (t=1)";
        check_bool "node 1 still up at t=1" true
          (Swala.Server.node_up (Swala.Server.node cluster 1));
        Sim.Engine.delay 2.0;
        (* t=3: node 1 is down; its duties have moved to successors. *)
        check_bool "node 1 down at t=3" false
          (Swala.Server.node_up (Swala.Server.node cluster 1));
        check_converged cluster "during the outage (t=3)";
        Sim.Engine.delay 2.0;
        (* t=5: node 1 restarted; duties moved back, squatters pruned. *)
        check_bool "node 1 back up at t=5" true
          (Swala.Server.node_up (Swala.Server.node cluster 1));
        check_converged cluster "after the restart (t=5)")
  in
  let get = Metrics.Counter.get (Swala.Server.merged_counters cluster) in
  check_int "one crash" 1 (get Swala.Server.K.crashes);
  check_int "one restart" 1 (get Swala.Server.K.restarts);
  check_bool "handoff re-announced entries" true
    (get Swala.Server.K.shard_handoff_reannounced > 0);
  check_bool "the ring's return pruned the stand-ins" true
    (get Swala.Server.K.shard_pruned > 0)

(* Partition -> divergence -> heal -> convergence, sharded edition: while
   the halves are split, announcements across the cut are lost; the heal
   triggers a handoff that re-announces everything, after which every
   cached entry is once more findable at its ring home. *)
let test_shard_partition_heal_convergence () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let halves =
    { Sim.Fault.pname = "halves"; groups = [ [ 0; 1 ]; [ 2; 3 ] ];
      cut_at = 1.0; heal_at = 6.0 }
  in
  let cfg =
    Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
      ~dir_mode:Swala.Config.Sharded
      ~fault:(Some (Sim.Fault.make ~partitions:[ halves ] ()))
      ~fetch_timeout:(Some 0.5) ~seed:11 ()
  in
  let table cluster i = Swala.Sharded_plane.table (Planes.sharded cluster) i in
  let missing_at_home cluster =
    let ring = Swala.Sharded_plane.ring (Planes.sharded cluster) in
    let missing = ref 0 in
    for i = 0 to 3 do
      List.iter
        (fun key ->
          let home = Cache.Ring.owner ring key in
          if Cache.Shard_table.find (table cluster home) key = None then
            incr missing)
        (Cache.Store.keys
           (Swala.Server.node_store (Swala.Server.node cluster i)))
    done;
    !missing
  in
  let diverged = ref 0 in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        (* Cache entries on both sides while split: announcements whose
           home lies across the cut are silently lost. *)
        Sim.Engine.delay 1.5;
        List.iteri
          (fun i q ->
            Swala.Server.preload cluster ~node:(i mod 4)
              (query (String.make 1 q))
              ~exec_time:0.3)
          [ 'a'; 'b'; 'c'; 'd'; 'e'; 'f'; 'g'; 'h'; 'i'; 'j'; 'k'; 'l';
            'm'; 'n'; 'o'; 'p' ];
        Sim.Engine.delay 1.0;
        (* Mid-split (t=3.5): some entries are unfindable at their homes. *)
        diverged := missing_at_home cluster;
        (* Outlive the heal (t=6) and the handoff it triggers. *)
        Sim.Engine.delay 5.5;
        check_int "every cached entry is back at its ring home after heal"
          0 (missing_at_home cluster))
  in
  check_bool "the split actually hid announcements" true (!diverged > 0);
  let get = Metrics.Counter.get (Swala.Server.merged_counters cluster) in
  check_int "the heal was observed" 1 (get Swala.Server.K.partitions_healed);
  check_bool "the heal handoff re-announced entries" true
    (get Swala.Server.K.shard_handoff_reannounced > 0)

(* 50-seed sweep: across seeds, every request is answered and the
   lookup-path accounting balances, with and without hotspot
   replication. *)
let test_multi_seed_conservation () =
  let n = 150 in
  for seed = 0 to 49 do
    let trace = coop_trace ~seed ~n in
    let hotspot = seed mod 2 = 1 in
    let cfg =
      Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
        ~dir_mode:Swala.Config.Sharded
        ~hotspot_threshold:(if hotspot then 1.0 else 0.)
        ~hotspot_window:1.0 ~seed ()
    in
    let r = Swala.Cluster_runner.run cfg ~trace ~n_streams:8 () in
    check_int
      (Printf.sprintf "seed %d: every request answered" seed)
      n
      (Metrics.Sample.count r.Swala.Cluster_runner.response);
    check_int
      (Printf.sprintf "seed %d: every request counted" seed)
      n
      (Metrics.Counter.get r.Swala.Cluster_runner.counters
         Swala.Server.K.requests);
    lookup_conservation (Printf.sprintf "seed %d" seed) n
      r.Swala.Cluster_runner.counters
  done

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "mapping is deterministic" `Quick
            test_ring_deterministic;
          Alcotest.test_case "successors are distinct, owner-first" `Quick
            test_ring_successors;
          Alcotest.test_case "acting owner follows liveness" `Quick
            test_ring_acting_owner;
          Alcotest.test_case "vnodes smooth the spread" `Quick
            test_ring_spread;
          Alcotest.test_case "matches the Printf-built reference" `Quick
            test_ring_matches_reference;
        ] );
      ( "config",
        [ Alcotest.test_case "sharded knobs are validated" `Quick
            test_shard_config_validation ] );
      ( "hotspot",
        [
          Alcotest.test_case "promote/demote hysteresis" `Quick
            test_hotspot_hysteresis;
          Alcotest.test_case "slow keys never promote" `Quick
            test_hotspot_slow_key_never_promotes;
          Alcotest.test_case "forget retracts a hot key" `Quick
            test_hotspot_forget;
        ] );
      ( "hints-regression",
        [ Alcotest.test_case "false hint is invalidated once" `Quick
            test_false_hint_invalidated ] );
      ( "cluster",
        [
          Alcotest.test_case "replicated default is untouched" `Quick
            test_replicated_untouched;
          Alcotest.test_case "sharded replay deterministic" `Quick
            test_sharded_replay_deterministic;
          Alcotest.test_case "lookup-path conservation" `Quick
            test_sharded_lookup_conservation;
          Alcotest.test_case "handoff across crash + restart" `Quick
            test_shard_handoff_crash_restart;
          Alcotest.test_case "partition heal converges the shards" `Quick
            test_shard_partition_heal_convergence;
          Alcotest.test_case "50-seed conservation sweep" `Quick
            test_multi_seed_conservation;
        ] );
    ]
