type t = {
  engine : Engine.t;
  lat : float;
  extra : (int -> float) option;  (* per-endpoint extra one-way latency *)
  bandwidth : float;
  fault : Fault.t option;
  nics : Rwlock.t array;  (* taken only for writing: one sender at a time *)
  mutable n_messages : int;
  mutable n_bytes : int;
}

let create ?(latency = 0.0002) ?extra_latency ?(bandwidth = 12.5e6) ?fault
    engine ~n_endpoints =
  if n_endpoints < 1 then invalid_arg "Net.create: need at least one endpoint";
  if bandwidth <= 0. then invalid_arg "Net.create: bandwidth must be positive";
  {
    engine;
    lat = latency;
    extra = extra_latency;
    bandwidth;
    fault;
    nics = Array.init n_endpoints (fun _ -> Rwlock.create ());
    n_messages = 0;
    n_bytes = 0;
  }

(* One-way flight time between two endpoints; without per-endpoint extras
   this is exactly [lat], leaving the default path untouched. *)
let one_way t ~src ~dst =
  match t.extra with None -> t.lat | Some f -> t.lat +. f src +. f dst

(* Consult the fault plan, which counts its own drops, for one inter-host
   message. *)
let fault_action t ~src ~dst =
  match t.fault with
  | None -> Fault.Deliver
  | Some f -> Fault.action f ~src ~dst ~now:(Engine.current_time t.engine)

let check_endpoint t who = if who < 0 || who >= Array.length t.nics then
    invalid_arg "Net: endpoint out of range"

let tx_time t bytes = float_of_int bytes /. t.bandwidth

(* Hold the sender's NIC for the message's transmission time. *)
let serialise t ~src ~bytes =
  let nic = t.nics.(src) in
  Rwlock.wr_lock nic;
  match Engine.delay (tx_time t bytes) with
  | () -> Rwlock.wr_unlock nic
  | exception e ->
      Rwlock.wr_unlock nic;
      raise e

let account t bytes =
  t.n_messages <- t.n_messages + 1;
  t.n_bytes <- t.n_bytes + bytes

let send t ~src ~dst ~bytes mailbox msg =
  check_endpoint t src;
  check_endpoint t dst;
  if bytes < 0 then invalid_arg "Net.send: negative size";
  account t bytes;
  if src = dst then Mailbox.send mailbox msg
  else begin
    (* Serialise through the sender's NIC, then fly for [lat]. *)
    serialise t ~src ~bytes;
    match fault_action t ~src ~dst with
    | Fault.Drop -> ()
    | Fault.Deliver ->
        Engine.schedule_after t.engine (one_way t ~src ~dst) (fun () ->
            Mailbox.send mailbox msg)
  end

let transfer t ~src ~dst ~bytes =
  check_endpoint t src;
  check_endpoint t dst;
  if bytes < 0 then invalid_arg "Net.transfer: negative size";
  account t bytes;
  if src <> dst then begin
    serialise t ~src ~bytes;
    Engine.delay (one_way t ~src ~dst)
  end

let messages_sent t = t.n_messages
let bytes_sent t = t.n_bytes
