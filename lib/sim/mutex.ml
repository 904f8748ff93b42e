type t = {
  mutable held : bool;
  queue : unit Engine.resumer Queue.t;
  observe : (wait:float -> depth:int -> unit) option;
  enqueue : unit Engine.resumer -> unit;
      (* built once, so a contended [lock] allocates no closure *)
}

let create ?observe () =
  let queue = Queue.create () in
  { held = false; queue; observe; enqueue = (fun r -> Queue.push r queue) }

let observed t ~wait ~depth =
  match t.observe with None -> () | Some f -> f ~wait ~depth

let lock t =
  if not t.held then begin
    t.held <- true;
    observed t ~wait:0. ~depth:0
  end
  else begin
    let depth = Queue.length t.queue in
    match t.observe with
    | None -> Engine.suspend t.enqueue
    | Some _ ->
        (* Contended path: the caller is a process, so reading the clock
           before and after the suspension is safe. *)
        let t0 = Engine.now () in
        Engine.suspend t.enqueue;
        observed t ~wait:(Engine.now () -. t0) ~depth
  end

let try_lock t =
  if t.held then false
  else begin
    t.held <- true;
    true
  end

let unlock t =
  if not t.held then invalid_arg "Mutex.unlock: not locked";
  if Queue.is_empty t.queue then t.held <- false
  else Engine.resume (Queue.take t.queue) () (* ownership transfers *)

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e

let locked t = t.held
