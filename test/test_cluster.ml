(* Tests for the inter-node protocol: message sizes, the replicated
   plane's broadcast and the remote fetch. *)

module Node = Swala.Node
module Update = Swala.Replicated_plane.Update

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let meta key =
  Cache.Meta.make ~key ~owner:0 ~size:128 ~exec_time:1.0 ~created:0.
    ~expires:None

let test_msg_sizes_positive () =
  let m = meta "GET /cgi?x=1" in
  check_bool "insert" true (Update.bytes (Update.Insert m) > 0);
  check_bool "delete" true
    (Update.bytes (Update.Delete { node = 0; key = "k" }) > 0);
  let req =
    { Node.key = "k"; requester = 1; reply = Sim.Mailbox.create (); span = 0 }
  in
  check_bool "fetch req" true (Node.fetch_request_bytes req > 0)

let test_msg_reply_size_includes_body () =
  let m = meta "k" in
  let hit =
    Node.Hit { meta = m; body = Http.Body.of_string (String.make 1000 'x') }
  in
  let miss = Node.Miss { key = "k" } in
  check_bool "hit >> miss" true
    (Node.fetch_reply_bytes hit > Node.fetch_reply_bytes miss + 900)

let test_msg_size_grows_with_key () =
  let small = Update.Insert (meta "k") in
  let large = Update.Insert (meta (String.make 200 'q')) in
  check_bool "longer key larger" true (Update.bytes large > Update.bytes small)

(* [n] nodes' mailboxes on a fresh network; [f] runs in a process. *)
let with_inboxes n f =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~n_endpoints:n in
  let inboxes = Array.init n (fun _ -> Sim.Mailbox.create ()) in
  Sim.Engine.spawn eng (fun () -> f net inboxes);
  Sim.Engine.run eng;
  inboxes

let test_broadcast_reaches_all_peers () =
  let inboxes =
    with_inboxes 4 (fun net inboxes ->
        let sent =
          Swala.Replicated_plane.info net inboxes ~src:1 ~bytes:64
            (Update.Delete { node = 1; key = "k" })
        in
        check_int "three peers" 3 sent)
  in
  Array.iteri
    (fun i inbox ->
      let expected = if i = 1 then 0 else 1 in
      check_int
        (Printf.sprintf "node %d inbox" i)
        expected (Sim.Mailbox.length inbox))
    inboxes

let test_broadcast_single_node_noop () =
  let inboxes =
    with_inboxes 1 (fun net inboxes ->
        let sent =
          Swala.Replicated_plane.info net inboxes ~src:0 ~bytes:64
            (Update.Insert (meta "k"))
        in
        check_int "no peers" 0 sent)
  in
  check_int "own inbox empty" 0 (Sim.Mailbox.length inboxes.(0))

let test_fetch_routes_to_owner () =
  let reply = Sim.Mailbox.create () in
  let data_mbs =
    with_inboxes 3 (fun net data_mbs ->
        Node.fetch net ~src:0 ~owner:2 data_mbs.(2)
          { Node.key = "k"; requester = 0; reply; span = 0 })
  in
  check_int "owner got it" 1 (Sim.Mailbox.length data_mbs.(2));
  check_int "others empty" 0 (Sim.Mailbox.length data_mbs.(1))

let test_broadcast_delivery_is_delayed () =
  (* Deliveries happen after network latency: inboxes stay empty at send
     time and fill once the simulation drains. *)
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~latency:0.5 ~bandwidth:1e9 eng ~n_endpoints:2 in
  let inboxes = Array.init 2 (fun _ -> Sim.Mailbox.create ()) in
  let at_send = ref (-1) in
  let arrival = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      ignore
        (Swala.Replicated_plane.info net inboxes ~src:0 ~bytes:64
           (Update.Insert (meta "k")));
      at_send := Sim.Mailbox.length inboxes.(1));
  Sim.Engine.spawn eng (fun () ->
      ignore (Sim.Mailbox.recv inboxes.(1));
      arrival := Sim.Engine.now ());
  Sim.Engine.run eng;
  check_int "not yet delivered at send" 0 !at_send;
  check_bool "arrives after latency" true (!arrival >= 0.5)

let () =
  Alcotest.run "cluster"
    [
      ( "msg",
        [
          Alcotest.test_case "sizes positive" `Quick test_msg_sizes_positive;
          Alcotest.test_case "reply includes body" `Quick test_msg_reply_size_includes_body;
          Alcotest.test_case "size grows with key" `Quick test_msg_size_grows_with_key;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "reaches all peers, not self" `Quick
            test_broadcast_reaches_all_peers;
          Alcotest.test_case "single node no-op" `Quick test_broadcast_single_node_noop;
          Alcotest.test_case "fetch routes to owner" `Quick test_fetch_routes_to_owner;
          Alcotest.test_case "delivery delayed by latency" `Quick
            test_broadcast_delivery_is_delayed;
        ] );
    ]
