type 'a waiter = { mutable active : bool; resume : 'a option Engine.resumer }

type 'a t = {
  items : 'a Queue.t;
  waiting : 'a waiter Queue.t;
  on_wait : (float -> unit) option;
  on_depth : (int -> unit) option;
  enqueue : 'a option Engine.resumer -> unit;
      (* built once, so a blocking [recv] allocates no closure *)
}

let create ?on_wait ?on_depth () =
  let waiting = Queue.create () in
  {
    items = Queue.create ();
    waiting;
    on_wait;
    on_depth;
    enqueue = (fun resume -> Queue.push { active = true; resume } waiting);
  }

let waited t dt = match t.on_wait with None -> () | Some f -> f dt

(* Drop waiters that timed out from the head of the queue, so that the
   head, if any, is the first live one. *)
let rec drop_inactive t =
  if (not (Queue.is_empty t.waiting)) && not (Queue.peek t.waiting).active
  then begin
    ignore (Queue.take t.waiting : _ waiter);
    drop_inactive t
  end

(* [send] runs in engine-event context too (timer actions, resumers), so
   it must never read the process clock; depth observation only inspects
   the queue. *)
let send t v =
  drop_inactive t;
  if Queue.is_empty t.waiting then Queue.push v t.items
  else begin
    let w = Queue.take t.waiting in
    w.active <- false;
    Engine.resume w.resume (Some v)
  end;
  match t.on_depth with None -> () | Some f -> f (Queue.length t.items)

let recv t =
  if not (Queue.is_empty t.items) then begin
    let v = Queue.take t.items in
    waited t 0.;
    v
  end
  else
    let t0 = match t.on_wait with None -> 0. | Some _ -> Engine.now () in
    match Engine.suspend t.enqueue with
    | Some v ->
        (match t.on_wait with
        | None -> ()
        | Some f -> f (Engine.now () -. t0));
        v
    | None -> assert false (* plain waiters are only resumed by send *)

let recv_timeout t ~timeout =
  if timeout < 0. then invalid_arg "Mailbox.recv_timeout: negative timeout";
  match Queue.take_opt t.items with
  | Some _ as got ->
      waited t 0.;
      got
  | None ->
      let t0 = match t.on_wait with None -> 0. | Some _ -> Engine.now () in
      let got =
        if timeout = Float.infinity then
          (* Wait as [recv] does: no timer, and the sender's [Some v] is
             handed back as it is. *)
          Engine.suspend t.enqueue
        else
          let engine = Engine.self_engine () in
          Engine.suspend (fun resume ->
              let w = { active = true; resume } in
              Queue.push w t.waiting;
              ignore
                (Engine.schedule_after engine timeout (fun () ->
                     if w.active then begin
                       w.active <- false;
                       Engine.resume w.resume None
                     end)
                  : Engine.handle))
      in
      (match t.on_wait with
      | None -> ()
      | Some f -> f (Engine.now () -. t0));
      got

let try_recv t = Queue.take_opt t.items
let length t = Queue.length t.items
