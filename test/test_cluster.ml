(* Tests for the inter-node protocol: messages, endpoints, broadcast. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let meta key =
  Cache.Meta.make ~key ~owner:0 ~size:128 ~exec_time:1.0 ~created:0.
    ~expires:None

let test_msg_sizes_positive () =
  let m = meta "GET /cgi?x=1" in
  check_bool "insert" true
    (Cluster.Msg.Replicated.bytes (Cluster.Msg.Replicated.Insert m) > 0);
  check_bool "delete" true
    (Cluster.Msg.Replicated.bytes
       (Cluster.Msg.Replicated.Delete { node = 0; key = "k" })
    > 0);
  let req =
    { Cluster.Msg.key = "k"; requester = 1; reply = Sim.Mailbox.create (); span = 0 }
  in
  check_bool "fetch req" true (Cluster.Msg.fetch_request_bytes req > 0)

let test_msg_reply_size_includes_body () =
  let m = meta "k" in
  let hit =
    Cluster.Msg.Hit { meta = m; body = Http.Body.of_string (String.make 1000 'x') }
  in
  let miss = Cluster.Msg.Miss { key = "k" } in
  check_bool "hit >> miss" true
    (Cluster.Msg.fetch_reply_bytes hit
    > Cluster.Msg.fetch_reply_bytes miss + 900)

let test_msg_size_grows_with_key () =
  let small = Cluster.Msg.Replicated.Insert (meta "k") in
  let large = Cluster.Msg.Replicated.Insert (meta (String.make 200 'q')) in
  check_bool "longer key larger" true
    (Cluster.Msg.Replicated.bytes large > Cluster.Msg.Replicated.bytes small)

let test_endpoint_make () =
  let ep = Cluster.Endpoint.make ~node:3 in
  check_int "node id" 3 ep.Cluster.Endpoint.node;
  check_int "empty data" 0 (Sim.Mailbox.length ep.Cluster.Endpoint.data_mb);
  check_int "empty backlog" 0 (Cluster.Endpoint.backlog ep)

let with_net n f =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~n_endpoints:n in
  let endpoints = Array.init n (fun node -> Cluster.Endpoint.make ~node) in
  Sim.Engine.spawn eng (fun () -> f net endpoints);
  Sim.Engine.run eng;
  endpoints

(* [n] nodes' info inboxes on a fresh network; [f] runs in a process. *)
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
          Cluster.Broadcast.info net inboxes ~src:1 ~bytes:64
            (Cluster.Msg.Replicated.Delete { node = 1; key = "k" })
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
          Cluster.Broadcast.info net inboxes ~src:0 ~bytes:64
            (Cluster.Msg.Replicated.Insert (meta "k"))
        in
        check_int "no peers" 0 sent)
  in
  check_int "own inbox empty" 0 (Sim.Mailbox.length inboxes.(0))

let test_fetch_routes_to_owner () =
  let reply = Sim.Mailbox.create () in
  let endpoints =
    with_net 3 (fun net endpoints ->
        Cluster.Broadcast.fetch net endpoints ~src:0 ~owner:2
          { Cluster.Msg.key = "k"; requester = 0; reply; span = 0 })
  in
  check_int "owner got it" 1
    (Sim.Mailbox.length endpoints.(2).Cluster.Endpoint.data_mb);
  check_int "others empty" 0
    (Sim.Mailbox.length endpoints.(1).Cluster.Endpoint.data_mb)

let test_fetch_unknown_owner () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~n_endpoints:2 in
  let endpoints = Array.init 2 (fun node -> Cluster.Endpoint.make ~node) in
  let raised = ref false in
  Sim.Engine.spawn eng (fun () ->
      try
        Cluster.Broadcast.fetch net endpoints ~src:0 ~owner:7
          { Cluster.Msg.key = "k"; requester = 0; reply = Sim.Mailbox.create (); span = 0 }
      with Invalid_argument _ -> raised := true);
  Sim.Engine.run eng;
  check_bool "unknown owner rejected" true !raised

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
        (Cluster.Broadcast.info net inboxes ~src:0 ~bytes:64
           (Cluster.Msg.Replicated.Insert (meta "k")));
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
      ( "endpoint",
        [ Alcotest.test_case "construction" `Quick test_endpoint_make ] );
      ( "broadcast",
        [
          Alcotest.test_case "reaches all peers, not self" `Quick
            test_broadcast_reaches_all_peers;
          Alcotest.test_case "single node no-op" `Quick test_broadcast_single_node_noop;
          Alcotest.test_case "fetch routes to owner" `Quick test_fetch_routes_to_owner;
          Alcotest.test_case "fetch to unknown owner rejected" `Quick
            test_fetch_unknown_owner;
          Alcotest.test_case "delivery delayed by latency" `Quick
            test_broadcast_delivery_is_delayed;
        ] );
    ]
