type waiter = { kind : [ `Read | `Write ]; resume : unit Engine.resumer }

type t = {
  mutable active_readers : int;
  mutable writer : bool;
  queue : waiter Queue.t;
  mutable rd_count : int;
  mutable wr_count : int;
  observe : (kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) option;
}

let create ?observe () =
  {
    active_readers = 0;
    writer = false;
    queue = Queue.create ();
    rd_count = 0;
    wr_count = 0;
    observe;
  }

let observed t ~kind ~wait ~depth =
  match t.observe with None -> () | Some f -> f ~kind ~wait ~depth

(* Contended acquisitions read the clock around the suspension; lock calls
   always come from a process (suspend requires one), so this is safe. *)
let blocking_lock t kind =
  let depth = Queue.length t.queue in
  match t.observe with
  | None -> Engine.suspend (fun resume -> Queue.push { kind; resume } t.queue)
  | Some _ ->
      let t0 = Engine.now () in
      Engine.suspend (fun resume -> Queue.push { kind; resume } t.queue);
      observed t ~kind ~wait:(Engine.now () -. t0) ~depth

let rd_lock t =
  if (not t.writer) && Queue.is_empty t.queue then begin
    t.active_readers <- t.active_readers + 1;
    t.rd_count <- t.rd_count + 1;
    observed t ~kind:`Read ~wait:0. ~depth:0
  end
  else blocking_lock t `Read

let wr_lock t =
  if (not t.writer) && t.active_readers = 0 && Queue.is_empty t.queue then begin
    t.writer <- true;
    t.wr_count <- t.wr_count + 1;
    observed t ~kind:`Write ~wait:0. ~depth:0
  end
  else blocking_lock t `Write

(* Admit from the head of the queue: either one writer, or every consecutive
   reader up to the next writer. *)
let release t =
  match Queue.peek_opt t.queue with
  | None -> ()
  | Some { kind = `Write; _ } ->
      if t.active_readers = 0 && not t.writer then begin
        let w = Queue.pop t.queue in
        t.writer <- true;
        t.wr_count <- t.wr_count + 1;
        Engine.resume w.resume ()
      end
  | Some { kind = `Read; _ } ->
      if not t.writer then begin
        let rec admit () =
          match Queue.peek_opt t.queue with
          | Some { kind = `Read; _ } ->
              let w = Queue.pop t.queue in
              t.active_readers <- t.active_readers + 1;
              t.rd_count <- t.rd_count + 1;
              Engine.resume w.resume ();
              admit ()
          | Some { kind = `Write; _ } | None -> ()
        in
        admit ()
      end

let rd_unlock t =
  if t.active_readers <= 0 then invalid_arg "Rwlock.rd_unlock: no reader";
  t.active_readers <- t.active_readers - 1;
  if t.active_readers = 0 then release t

let wr_unlock t =
  if not t.writer then invalid_arg "Rwlock.wr_unlock: no writer";
  t.writer <- false;
  release t

let with_rd t f =
  rd_lock t;
  match f () with
  | v ->
      rd_unlock t;
      v
  | exception e ->
      rd_unlock t;
      raise e

let with_wr t f =
  wr_lock t;
  match f () with
  | v ->
      wr_unlock t;
      v
  | exception e ->
      wr_unlock t;
      raise e

let rd_acquisitions t = t.rd_count
let wr_acquisitions t = t.wr_count
