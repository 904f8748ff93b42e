(* Tests for directory-update batching (the Nagle-style coalescing buffer,
   Update.Batch envelopes, the flush daemon), the key→owner hint index, and
   the O(1) incremental anti-entropy digest: wire-byte amortisation,
   configuration validation, byte-identity of the [batch_max = 1] path
   with the pre-batching transmit path, receiver-side last-write-wins,
   conservation of originated updates, crash-interruptible batch fan-out,
   false-hint fallback, and deterministic replay with batching on. *)

module Update = Swala.Replicated_plane.Update

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_digest_pair = Alcotest.(check (pair int int))

let count = Qcheck_count.or_default 500

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

(* ------------------------------------------------------------------ *)
(* Wire accounting: a batch shares one envelope *)

let test_batch_bytes () =
  let u1 = Update.Insert (meta "GET /cgi-bin/a")
  and u2 = Update.Delete { node = 1; key = "GET /cgi-bin/b" }
  and u3 = Update.Insert (meta ~owner:2 "GET /cgi-bin/c") in
  let separately =
    List.fold_left (fun acc u -> acc + Update.bytes u) 0 [ u1; u2; u3 ]
  in
  let batched = Update.bytes (Update.Batch [ u1; u2; u3 ]) in
  check_bool "one shared envelope beats three" true (batched < separately);
  (* Exactly: the batch replaces two of the three envelopes with a
     12-byte sub-header per carried update. *)
  let envelope = Update.bytes (Update.Batch []) in
  check_int "batch = envelope + per-update sub-headers + bodies"
    (separately - (2 * envelope) + (3 * 12))
    batched

(* ------------------------------------------------------------------ *)
(* Configuration validation *)

let test_batch_config_validation () =
  let valid cfg = Swala.Config.validate cfg in
  expect_invalid "batch_max 0" (fun () ->
      valid (Swala.Config.make ~batch_max:0 ()));
  expect_invalid "batch_max > 1 without a flush interval" (fun () ->
      valid (Swala.Config.make ~batch_max:8 ()));
  expect_invalid "zero flush interval" (fun () ->
      valid
        (Swala.Config.make ~batch_max:8 ~batch_flush_interval:(Some 0.) ()));
  expect_invalid "negative flush interval" (fun () ->
      valid
        (Swala.Config.make ~batch_max:8 ~batch_flush_interval:(Some (-0.1)) ()));
  expect_invalid "batching under the strong protocol" (fun () ->
      valid
        (Swala.Config.make ~batch_max:8 ~batch_flush_interval:(Some 0.01)
           ~consistency:Swala.Config.Strong ()));
  valid
    (Swala.Config.make ~batch_max:64 ~batch_flush_interval:(Some 0.02)
       ~dir_hints:true ());
  (* batch_max = 1 with an interval set is the degenerate no-op. *)
  valid (Swala.Config.make ~batch_max:1 ~batch_flush_interval:(Some 0.02) ())

(* ------------------------------------------------------------------ *)
(* Incremental digest: fast path always agrees with the recompute *)

let check_digest d ~node msg =
  check_digest_pair msg
    (Cache.Directory.digest_slow d ~node)
    (Cache.Directory.digest d ~node)

let test_digest_incremental () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:3 ~hints:true () in
      check_digest d ~node:0 "empty table";
      Cache.Directory.insert d ~node:0 (meta "a");
      Cache.Directory.insert d ~node:0 (meta "b");
      Cache.Directory.insert d ~node:1 (meta ~owner:1 "a");
      check_digest d ~node:0 "after inserts";
      check_digest d ~node:1 "other table untouched by them";
      (* Replacing a key must XOR the old meta out before the new one in. *)
      Cache.Directory.insert d ~node:0 (meta ~size:999 ~created:1. "a");
      check_digest d ~node:0 "after same-key replace";
      ignore (Cache.Directory.delete d ~node:0 "b" : bool);
      ignore (Cache.Directory.delete d ~node:0 "never-inserted" : bool);
      check_digest d ~node:0 "after delete";
      ignore (Cache.Directory.purge_node d ~node:0 : int);
      check_digest d ~node:0 "after purge";
      check_int "purged table is empty" 0
        (Cache.Directory.table_size d ~node:0);
      ignore (Cache.Directory.reset_node d ~node:1 : int);
      check_digest d ~node:1 "after reset";
      (* Element-wise identical tables give identical digests, whatever
         the insertion order was. *)
      Cache.Directory.insert d ~node:0 (meta "x");
      Cache.Directory.insert d ~node:0 (meta "y");
      Cache.Directory.insert d ~node:2 (meta "y");
      Cache.Directory.insert d ~node:2 (meta "x");
      check_digest_pair "identical content, identical digest"
        (Cache.Directory.digest d ~node:0)
        (Cache.Directory.digest d ~node:2))

(* The digest of a table with [extra] and then [m] inserted. *)
let digest_with ~extra m =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:1 () in
      List.iter (Cache.Directory.insert d ~node:0) extra;
      Cache.Directory.insert d ~node:0 m;
      Cache.Directory.digest d ~node:0)

let gen_meta =
  QCheck.Gen.(
    map
      (fun ((key, owner, size), (exec_time, created, expires)) ->
        Cache.Meta.make ~key ~owner ~size ~exec_time ~created ~expires)
      (pair
         (triple
            (string_size ~gen:printable (1 -- 24))
            (0 -- 63) (0 -- 1_000_000))
         (triple (float_bound_inclusive 5.) (float_bound_inclusive 1000.)
            (opt (float_bound_inclusive 2000.)))))

(* Anti-entropy skips a repair when digests match, so a change to any one
   field of an entry — down to one unit in the last place of a float —
   must change its table's digest. *)
let prop_digest_sees_every_field =
  let gen =
    QCheck.Gen.(triple (list_size (0 -- 4) gen_meta) gen_meta (0 -- 5))
  in
  let print (_, m, field) =
    Printf.sprintf "field %d of %s" field
      (Format.asprintf "%a" Cache.Meta.pp m)
  in
  QCheck.Test.make ~name:"changing one field changes the digest" ~count
    (QCheck.make ~print gen) (fun (extra, (m : Cache.Meta.t), field) ->
      let extra = List.filter (fun (e : Cache.Meta.t) -> e.key <> m.key) extra in
      let changed =
        let { Cache.Meta.key; owner; size; exec_time; created; expires; _ } =
          m
        in
        let make ?(owner = owner) ?(size = size) ?(exec_time = exec_time)
            ?(created = created) ?(expires = expires) () =
          Cache.Meta.make ~key ~owner ~size ~exec_time ~created ~expires
        in
        match field with
        | 0 -> make ~owner:(owner + 1) ()
        | 1 -> make ~size:(size + 1) ()
        | 2 -> make ~exec_time:(Float.succ exec_time) ()
        | 3 -> make ~created:(Float.succ created) ()
        | 4 ->
            make
              ~expires:
                (match expires with None -> Some created | Some _ -> None)
              ()
        | _ ->
            make
              ~expires:
                (Some (Float.succ (Option.value expires ~default:created)))
              ()
      in
      digest_with ~extra m <> digest_with ~extra changed)

(* Digests are compared between processes, so the hash must not depend
   on anything but the meta: it is pinned to values computed
   independently from its definition (FNV-1a over the key bytes, then
   the key length, owner and size as 8 little-endian bytes each, then
   the IEEE bits of exec_time and created, then a presence byte and the
   bits of expires, folded to 58 bits). *)
let test_digest_golden () =
  let m expires =
    Cache.Meta.make ~key:"GET /cgi-bin/query?q=swala" ~owner:3 ~size:4096
      ~exec_time:1.6 ~created:12.5 ~expires
  in
  check_digest_pair "with expiry" (1, 0x13d57d328d9266c)
    (digest_with ~extra:[] (m (Some 42.25)));
  check_digest_pair "without expiry" (1, 0x7462dcf065681e)
    (digest_with ~extra:[] (m None))

(* ------------------------------------------------------------------ *)
(* Hint index *)

let test_hint_saves_probes () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:4 ~hints:true () in
      check_bool "hints enabled" true (Cache.Directory.hints_enabled d);
      Cache.Directory.insert d ~node:2 (meta ~owner:2 "k");
      (match Cache.Directory.lookup_from d ~self:0 ~now:0. "k" with
      | Some m -> check_int "found at the hinted owner" 2 m.Cache.Meta.owner
      | None -> Alcotest.fail "hinted lookup missed a live entry");
      (* Node 0's probe chain is [0;1;2;3]; the hint jumped straight to
         table 2, skipping the two tables before it. *)
      let saved, false_hints = Cache.Directory.hint_stats d in
      check_int "two probes saved" 2 saved;
      check_int "no false hints" 0 false_hints)

let test_hint_false_fallback () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:4 ~hints:true () in
      (* An expired entry leaves its hint behind — hints are advisory,
         never authoritative. *)
      Cache.Directory.insert d ~node:1 (meta ~owner:1 ~expires:1. "k");
      check_bool "expired entry is absent" true
        (Cache.Directory.lookup_from d ~self:0 ~now:5. "k" = None);
      let _, false_hints = Cache.Directory.hint_stats d in
      check_int "the false hint ran the full-scan fallback" 1 false_hints;
      (* A lookup of a never-hinted key is a plain full scan, not a false
         hint. *)
      check_bool "unknown key misses" true
        (Cache.Directory.lookup_from d ~self:0 ~now:5. "nope" = None);
      let _, false_hints = Cache.Directory.hint_stats d in
      check_int "no-hint scans are not false hints" 1 false_hints;
      (* A live copy elsewhere is still found when the hint set also
         carries a stale member. *)
      Cache.Directory.insert d ~node:3 (meta ~owner:3 "k");
      (match Cache.Directory.lookup_from d ~self:0 ~now:5. "k" with
      | Some m ->
          check_int "live copy found despite the stale hint" 3
            m.Cache.Meta.owner
      | None -> Alcotest.fail "stale hint member hid the live copy"))

let test_hint_cleared_on_wipe () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:3 ~hints:true () in
      Cache.Directory.insert d ~node:1 (meta ~owner:1 "k");
      ignore (Cache.Directory.reset_node d ~node:1 : int);
      check_bool "wiped entry is gone" true
        (Cache.Directory.lookup_from d ~self:0 ~now:0. "k" = None);
      let _, false_hints = Cache.Directory.hint_stats d in
      check_int "the wipe cleared the hint with the entries" 0 false_hints)

let test_hint_bitmask_capacity () =
  expect_invalid "hint bitmask cannot cover that many nodes" (fun () ->
      Cache.Directory.create ~nodes:(Sys.int_size - 1) ~hints:true ());
  (* Without hints the same size is fine. *)
  ignore (Cache.Directory.create ~nodes:(Sys.int_size - 1) () : Cache.Directory.t)

(* ------------------------------------------------------------------ *)
(* Protocol level: a batch envelope fans out like any other info message,
   including the crash-interruptible partial broadcast. *)

let test_batch_fanout_interruptible () =
  let engine = Sim.Engine.create () in
  let net = Sim.Net.create engine ~n_endpoints:5 in
  let inboxes = Array.init 5 (fun _ -> Sim.Mailbox.create ()) in
  let batch =
    Update.Batch
      [ Update.Insert (meta "GET /cgi-bin/a");
        Update.Insert (meta "GET /cgi-bin/b") ]
  in
  let bytes = Update.bytes batch in
  let calls = ref 0 in
  let sent_partial = ref (-1) in
  let sent_full = ref (-1) in
  Sim.Engine.spawn engine (fun () ->
      (* Crash after two peers heard the flush: those two replicas carry
         both updates, the other two carry neither — an honest partial
         state for anti-entropy to repair, never a half-applied batch. *)
      sent_partial :=
        Swala.Replicated_plane.info
          ~should_abort:(fun () ->
            Stdlib.incr calls;
            !calls > 3)
          net inboxes ~src:0 ~bytes batch;
      sent_full := Swala.Replicated_plane.info net inboxes ~src:0 ~bytes batch);
  Sim.Engine.run engine;
  check_int "aborted flush reached two peers" 2 !sent_partial;
  check_int "unaborted flush reaches all four" 4 !sent_full;
  let queued i = Sim.Mailbox.length inboxes.(i) in
  check_int "peer 1 heard both envelopes" 2 (queued 1);
  check_int "peer 2 heard both envelopes" 2 (queued 2);
  check_int "peer 3 heard only the full one" 1 (queued 3);
  check_int "peer 4 heard only the full one" 1 (queued 4)

(* ------------------------------------------------------------------ *)
(* Cluster level *)

let coop_trace ~seed ~n =
  Workload.Synthetic.coop ~seed ~n ~n_unique:(n * 7 / 10) ~n_hot:(n / 10) ()

let counters_equal msg a b =
  check_bool (msg ^ ": Counter.equal") true (Metrics.Counter.equal a b);
  (* and the long way round, for a readable diff on failure *)
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

(* [batch_max = 1] must reproduce the pre-batching transmit path
   byte-for-byte: same counters, same makespan, no batch envelopes. *)
let test_batch_max_one_identity () =
  let trace = coop_trace ~seed:7 ~n:400 in
  let run cfg = Swala.Cluster_runner.run cfg ~trace ~n_streams:8 () in
  let base =
    run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~seed:7 ())
  and degenerate =
    run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~batch_max:1 ~batch_flush_interval:(Some 0.02) ~seed:7 ())
  in
  check_float "same makespan" base.Swala.Cluster_runner.duration
    degenerate.Swala.Cluster_runner.duration;
  Alcotest.(check (float 0.))
    "same mean response"
    (Swala.Cluster_runner.mean_response base)
    (Swala.Cluster_runner.mean_response degenerate);
  counters_equal "batch_max = 1 is byte-identical"
    base.Swala.Cluster_runner.counters degenerate.Swala.Cluster_runner.counters;
  check_int "no batch envelopes on the degenerate path" 0
    (Metrics.Counter.get degenerate.Swala.Cluster_runner.counters
       Swala.Server.K.batches_sent)

(* Same seed, same config, batching and hints on: two runs agree on
   every counter — batching does not perturb determinism. *)
let test_batched_replay_deterministic () =
  let trace = coop_trace ~seed:13 ~n:400 in
  let run () =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:4 ~cache_mode:Swala.Config.Cooperative
         ~batch_max:64 ~batch_flush_interval:(Some 0.01) ~dir_hints:true
         ~seed:13 ())
      ~trace ~n_streams:8 ()
  in
  let a = run () and b = run () in
  check_float "same makespan" a.Swala.Cluster_runner.duration
    b.Swala.Cluster_runner.duration;
  Alcotest.(check (float 0.))
    "same mean response"
    (Swala.Cluster_runner.mean_response a)
    (Swala.Cluster_runner.mean_response b);
  counters_equal "batched replay" a.Swala.Cluster_runner.counters
    b.Swala.Cluster_runner.counters

(* Conservation: every originated update is either transmitted (inside a
   batch or bare), coalesced away by a newer same-key update, or still
   sitting in a buffer when the run ends — and every transmitted update
   is applied by every peer. *)
let test_batch_conservation () =
  let trace = coop_trace ~seed:3 ~n:600 in
  let nodes = 4 and batch_max = 16 in
  let r =
    Swala.Cluster_runner.run
      (Swala.Config.make ~n_nodes:nodes ~cache_mode:Swala.Config.Cooperative
         ~batch_max ~batch_flush_interval:(Some 0.005) ~seed:3 ())
      ~trace ~n_streams:16 ()
  in
  let get = Metrics.Counter.get r.Swala.Cluster_runner.counters in
  let originated =
    get Swala.Server.K.broadcast_insert + get Swala.Server.K.broadcast_delete
  in
  let msgs = get Swala.Server.K.info_msgs
  and batches = get Swala.Server.K.batches_sent in
  check_bool "batching engaged" true (batches > 0);
  check_int "every unicast fanned out to all peers" 0 (msgs mod (nodes - 1));
  let envelopes = msgs / (nodes - 1) in
  let bare = envelopes - batches in
  check_bool "bare singleton flushes are non-negative" true (bare >= 0);
  check_bool "a batch envelope carries at least two updates" true
    (get Swala.Server.K.batch_updates >= 2 * batches);
  let transmitted = get Swala.Server.K.batch_updates + bare in
  check_int "receivers applied every transmitted update"
    (transmitted * (nodes - 1))
    (get Swala.Server.K.info_applied);
  let leftover =
    originated - transmitted - get Swala.Server.K.batch_coalesced
  in
  check_bool "unflushed leftovers are bounded by the buffers" true
    (leftover >= 0 && leftover <= nodes * (batch_max - 1))

(* Receivers apply a batch in list order, so a later update to the same
   key wins — exactly the coalescing rule the sender enforces. *)
let test_batch_apply_last_write_wins () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:2 ~cache_mode:Swala.Config.Cooperative ~seed:1 ()
  in
  let (_ : Swala.Server.cluster) =
    run_cluster_script ~cfg ~registry (fun cluster ->
        let stale = meta ~owner:0 ~size:10 ~created:1. "k"
        and fresh = meta ~owner:0 ~size:20 ~created:2. "k" in
        Sim.Mailbox.send
          (Swala.Replicated_plane.info_mailbox (Planes.replicated cluster) 1)
          {
            Swala.Node.info =
              Update.Batch [ Update.Insert stale; Update.Insert fresh ];
            ack = None;
            span = 0;
          };
        Sim.Engine.delay 1.0;
        let dir1 = Planes.directory cluster 1 in
        match Cache.Directory.find dir1 ~node:0 "k" with
        | Some m ->
            check_int "the later update won" 20 m.Cache.Meta.size;
            check_float "winner's created stamp" 2. m.Cache.Meta.created
        | None -> Alcotest.fail "batch was not applied")
  in
  ()

(* The sender-side buffer coalesces same-key updates (newest wins) and
   the flush daemon delivers what the size threshold never would. *)
let test_flush_daemon_and_coalescing () =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cfg =
    Swala.Config.make ~n_nodes:3 ~cache_mode:Swala.Config.Cooperative
      ~batch_max:64 ~batch_flush_interval:(Some 0.05) ~seed:2 ()
  in
  let before = ref (-1) in
  let cluster =
    run_cluster_script ~cfg ~registry (fun cluster ->
        Swala.Server.preload cluster ~node:0 (query "a") ~exec_time:0.3;
        Swala.Server.preload cluster ~node:0 (query "b") ~exec_time:0.3;
        Swala.Server.preload cluster ~node:0 (query "c") ~exec_time:0.3;
        (* A newer insert of "a" overtakes the buffered one. *)
        Swala.Server.preload cluster ~node:0 (query "a") ~exec_time:0.4;
        let dir1 = Planes.directory cluster 1 in
        before := Cache.Directory.table_size dir1 ~node:0;
        Sim.Engine.delay 1.0;
        check_int "the flush delivered the three distinct keys" 3
          (Cache.Directory.table_size dir1 ~node:0);
        (match Cache.Directory.find dir1 ~node:0
                 (Http.Request.cache_key (query "a"))
         with
        | Some m ->
            check_float "the newer same-key update won" 0.4
              m.Cache.Meta.exec_time
        | None -> Alcotest.fail "coalesced key never arrived");
        (* Replicas agree element-wise once the flusher has run. *)
        let dir0 = Planes.directory cluster 0 in
        check_digest_pair "replica digests agree after the flush"
          (Cache.Directory.digest dir0 ~node:0)
          (Cache.Directory.digest dir1 ~node:0))
  in
  check_int "updates were buffered, not sent inline" 0 !before;
  let get = Metrics.Counter.get (Swala.Server.merged_counters cluster) in
  check_int "four updates originated" 4 (get Swala.Server.K.broadcast_insert);
  check_int "one was coalesced away" 1 (get Swala.Server.K.batch_coalesced);
  check_int "one batch envelope per peer" 2 (get Swala.Server.K.info_msgs);
  check_int "it carried the three survivors" 3
    (get Swala.Server.K.batch_updates);
  check_int "each peer applied all three" 6 (get Swala.Server.K.info_applied)

let () =
  Alcotest.run "batching"
    [
      ( "wire",
        [ Alcotest.test_case "batch shares one envelope" `Quick
            test_batch_bytes ] );
      ( "config",
        [ Alcotest.test_case "batching knobs are validated" `Quick
            test_batch_config_validation ] );
      ( "digest",
        [
          Alcotest.test_case "incremental digest equals recompute" `Quick
            test_digest_incremental;
          Alcotest.test_case "golden values" `Quick test_digest_golden;
          QCheck_alcotest.to_alcotest prop_digest_sees_every_field;
        ] );
      ( "hints",
        [
          Alcotest.test_case "hint skips preceding tables" `Quick
            test_hint_saves_probes;
          Alcotest.test_case "false hint falls back to the full scan" `Quick
            test_hint_false_fallback;
          Alcotest.test_case "wipe clears the hints" `Quick
            test_hint_cleared_on_wipe;
          Alcotest.test_case "bitmask capacity is enforced" `Quick
            test_hint_bitmask_capacity;
        ] );
      ( "protocol",
        [ Alcotest.test_case "batch fan-out is crash-interruptible" `Quick
            test_batch_fanout_interruptible ] );
      ( "cluster",
        [
          Alcotest.test_case "batch_max = 1 is the unbatched path" `Quick
            test_batch_max_one_identity;
          Alcotest.test_case "batched replay deterministic" `Quick
            test_batched_replay_deterministic;
          Alcotest.test_case "update conservation under batching" `Quick
            test_batch_conservation;
          Alcotest.test_case "receiver applies batches in order" `Quick
            test_batch_apply_last_write_wins;
          Alcotest.test_case "flush daemon + sender coalescing" `Quick
            test_flush_daemon_and_coalescing;
        ] );
    ]
