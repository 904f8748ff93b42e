let info ?(should_abort = fun () -> false) ?(span = 0) net inboxes ~src ~bytes
    msg =
  let sent = ref 0 in
  (* The fan-out pays one NIC transmission per peer, so simulated time
     passes between sends — a crash event can land mid-loop. Checking the
     abort predicate before each send makes the broadcast genuinely
     partial: peers already messaged keep the update, the rest never see
     it (as opposed to the network dropping the remaining sends, which
     would count as drops). *)
  (try
     Array.iteri
       (fun dst inbox ->
         if should_abort () then raise Exit;
         if dst <> src then begin
           Sim.Net.send net ~src ~dst ~bytes inbox
             { Msg.info = msg; ack = None; span };
           incr sent
         end)
       inboxes
   with Exit -> ());
  !sent

let info_sync ?(span = 0) net inboxes ~src ~bytes msg =
  let ack = Sim.Mailbox.create () in
  let sent = ref 0 in
  Array.iteri
    (fun dst inbox ->
      if dst <> src then begin
        Sim.Net.send net ~src ~dst ~bytes inbox
          { Msg.info = msg; ack = Some (src, ack); span };
        incr sent
      end)
    inboxes;
  for _ = 1 to !sent do
    Sim.Mailbox.recv ack
  done;
  !sent

let fetch net endpoints ~src ~owner req =
  if owner < 0 || owner >= Array.length endpoints then
    invalid_arg "Broadcast.fetch: unknown owner endpoint";
  Sim.Net.send net ~src ~dst:owner
    ~bytes:(Msg.fetch_request_bytes req)
    endpoints.(owner).Endpoint.data_mb req

let fetch_sync ?(span = 0) net endpoints ~src ~owner ~timeout ~retries ~backoff
    key =
  if timeout <= 0. then invalid_arg "Broadcast.fetch_sync: timeout must be > 0";
  if retries < 0 then invalid_arg "Broadcast.fetch_sync: retries must be >= 0";
  if backoff < 1. then invalid_arg "Broadcast.fetch_sync: backoff must be >= 1";
  let rec attempt n timeout =
    (* A fresh reply mailbox per attempt: a reply to an abandoned attempt
       must not satisfy a later one out of order. *)
    let reply = Sim.Mailbox.create () in
    fetch net endpoints ~src ~owner { Msg.key; requester = src; reply; span };
    match Sim.Mailbox.recv_timeout reply ~timeout with
    | Some r -> (Some r, n)
    | None -> if n < retries then attempt (n + 1) (timeout *. backoff)
              else (None, n)
  in
  attempt 0 timeout
