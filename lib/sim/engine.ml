(* What an event does when it fires. The common paths carry the captured
   continuation directly instead of a [fun () -> continue k v] thunk,
   which removes one closure allocation per delay/resume — the two
   dominant event kinds. [Noop] is the dummy payload of the heap and the
   lane: a popped slot is overwritten with it, so a drained queue holds
   no closure or continuation. *)
type action =
  | Noop
  | Call of (unit -> unit)
  | Resume_unit of (unit, unit) Effect.Deep.continuation
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> action

(* A record whose only field is a float is a flat block, so advancing
   the clock stores in place; a [mutable float] field of the mixed
   record below, or a [float ref], would box a fresh float per event. *)
type clock = { mutable now : float }

(* Events due at the current clock — wake-ups, zero-length delays,
   forks — skip the heap: they wait in a FIFO ring, in sequence order,
   beside it. Their time is implicit: nothing enters the lane except at
   the current clock, and the clock cannot advance past an event still
   in it, because [run] only takes a later event once the lane is empty.
   Armed timers sit in a third queue, an indexed heap, where re-arming
   moves an entry instead of leaving a dead one behind. *)
type t = {
  clock : clock;
  mutable next_seq : int;
  mutable n_suspended : int;
  mutable n_events : int;  (* events executed by [run], for perf reporting *)
  queue : action Pqueue.Timed.t;
  timers : (unit -> unit) Pqueue.Indexed.t;
  (* the same-instant lane: a ring whose length is a power of two *)
  mutable lane_seqs : int array;
  mutable lane_acts : action array;
  mutable lane_head : int;
  mutable lane_len : int;
  (* most events ever queued at once, heap, lane and timers together *)
  mutable high_water : int;
  (* The duration of the [delay] being performed, read by [delay_handler]:
     a flat cell, so [delay] hands it over without boxing. *)
  delay_dt : Pqueue.cell;
  (* The time of the event being queued or the timer being armed, handed
     to the heaps in a cell for the same reason *)
  key : Pqueue.cell;
  (* The handlers [Delay] and [Get_local] return, built once per engine
     (see [run_process]); [local_read] is the value the second hands
     back. *)
  mutable delay_handler :
    ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable local_read : int;
  mutable get_local_handler :
    ((int, unit) Effect.Deep.continuation -> unit) option;
}

type timer = { t_eng : t; entry : (unit -> unit) Pqueue.Indexed.elt }

exception Not_in_process
exception Deadlock of string

let current_time t = t.clock.now
let clock t = t.clock

let pending t =
  Pqueue.Timed.length t.queue + t.lane_len + Pqueue.Indexed.length t.timers

let note_depth t =
  let d = pending t in
  if d > t.high_water then t.high_water <- d

(* Unvalidated pushes shared by every scheduling path, at the time in
   [t.key]; sequence numbers are allocated here in call order, which
   fixes the deterministic tie-break across the heap, the lane and the
   timers alike. *)
let push_event t act =
  Pqueue.Timed.push_cell t.queue t.key ~seq:t.next_seq act;
  t.next_seq <- t.next_seq + 1;
  note_depth t

let grow_lane t =
  let cap = Array.length t.lane_acts in
  let seqs = Array.make (2 * cap) 0 and acts = Array.make (2 * cap) Noop in
  for j = 0 to t.lane_len - 1 do
    let i = (t.lane_head + j) land (cap - 1) in
    seqs.(j) <- t.lane_seqs.(i);
    acts.(j) <- t.lane_acts.(i)
  done;
  t.lane_seqs <- seqs;
  t.lane_acts <- acts;
  t.lane_head <- 0

(* Queue [act] at the current clock. *)
let push_lane t act =
  if t.lane_len = Array.length t.lane_acts then grow_lane t;
  let i = (t.lane_head + t.lane_len) land (Array.length t.lane_acts - 1) in
  t.lane_seqs.(i) <- t.next_seq;
  t.lane_acts.(i) <- act;
  t.lane_len <- t.lane_len + 1;
  t.next_seq <- t.next_seq + 1;
  note_depth t

(* The popped slot is overwritten with [Noop], so a drained lane holds no
   continuation or resume value. *)
let pop_lane t =
  let i = t.lane_head in
  let act = t.lane_acts.(i) in
  t.lane_acts.(i) <- Noop;
  t.lane_head <- (i + 1) land (Array.length t.lane_acts - 1);
  t.lane_len <- t.lane_len - 1;
  act

(* A delay that ends now waits in the lane; a later one in the heap. *)
let delay_resume t k =
  t.key.time <- t.clock.now +. t.delay_dt.time;
  if t.key.time = t.clock.now then push_lane t (Resume_unit k)
  else push_event t (Resume_unit k)

let create () =
  let t =
    {
      clock = { now = 0. };
      next_seq = 0;
      n_suspended = 0;
      n_events = 0;
      queue = Pqueue.Timed.create ~dummy:Noop ();
      timers = Pqueue.Indexed.create ~dummy:ignore ();
      lane_seqs = Array.make 16 0;
      lane_acts = Array.make 16 Noop;
      lane_head = 0;
      lane_len = 0;
      high_water = 0;
      delay_dt = { time = 0. };
      key = { time = 0. };
      delay_handler = None;
      local_read = 0;
      get_local_handler = None;
    }
  in
  t.delay_handler <- Some (fun k -> delay_resume t k);
  t.get_local_handler <- Some (fun k -> Effect.Deep.continue k t.local_read);
  t

let past fn t time =
  invalid_arg
    (Printf.sprintf "Engine.%s: time %g is in the past (now %g)" fn time
       t.clock.now)

let schedule_at t time f =
  if time < t.clock.now then past "schedule_at" t time;
  t.key.time <- time;
  push_event t (Call f)

let schedule_after t dt f =
  if dt < 0. then invalid_arg "Engine.schedule_after: negative delay";
  t.key.time <- t.clock.now +. dt;
  push_event t (Call f)

(* ------------------------------------------------------------------ *)
(* Timers *)

let timer t f = { t_eng = t; entry = Pqueue.Indexed.elt f }

(* Arm [tm] at the time in [key], unvalidated. Arming takes the next
   sequence number, exactly where [schedule_at] would: a re-armed timer
   fires where a cancelled-and-rescheduled event would have. *)
let arm tm key =
  let t = tm.t_eng in
  Pqueue.Indexed.set t.timers tm.entry key ~seq:t.next_seq;
  t.next_seq <- t.next_seq + 1;
  note_depth t

let arm_at tm time =
  let t = tm.t_eng in
  if time < t.clock.now then past "arm_at" t time;
  t.key.time <- time;
  arm tm t.key

let arm_at_cell tm (key : Pqueue.cell) =
  if key.time < tm.t_eng.clock.now then past "arm_at_cell" tm.t_eng key.time;
  arm tm key

let arm_after tm dt =
  if dt < 0. then invalid_arg "Engine.arm_after: negative delay";
  let t = tm.t_eng in
  t.key.time <- t.clock.now +. dt;
  arm tm t.key

let clear tm = Pqueue.Indexed.remove tm.t_eng.timers tm.entry

let suspended t = t.n_suspended
let events_processed t = t.n_events

(* Flight-recorder inspection. The capacity is the size one heap holding
   every queued event would have grown to: 16 slots, doubled until it
   covered the high-water mark, as [Pqueue.Timed] grows. An O(log) read. *)
let heap_capacity t =
  if t.high_water = 0 then 0
  else begin
    let c = ref 16 in
    while !c < t.high_water do
      c := 2 * !c
    done;
    !c
  end

(* ------------------------------------------------------------------ *)
(* Current engine

   [now]/[self_engine] are called on every traced operation and many hot
   paths; performing an effect for them costs a handler round-trip per
   call. Instead the running engine is published in a domain-local slot
   for the duration of [run] — reading it is a flat load, and keeping the
   slot per-domain is what lets [Sweep] run one engine per domain. *)

let current : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let now () =
  match !(Domain.DLS.get current) with
  | Some t -> t.clock.now
  | None -> raise Not_in_process

let self_engine () =
  match !(Domain.DLS.get current) with
  | Some t -> t
  | None -> raise Not_in_process

(* ------------------------------------------------------------------ *)
(* Effects *)

type 'a resumer = {
  mutable fired : bool;
  r_eng : t;
  r_k : ('a, unit) Effect.Deep.continuation;
}

(* The handler a [Suspend] returns, built by its caller once: performing
   it allocates no closure. It reads the engine from the domain-local
   slot, which during [run] holds the engine whose process performed. *)
type 'a suspension = (('a, unit) Effect.Deep.continuation -> unit) option

type _ Effect.t +=
  | Delay : unit Effect.t
  | Suspend : 'a suspension -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t
  | Get_local : int Effect.t
  | Set_local : int -> unit Effect.t

let resume r v =
  if r.fired then invalid_arg "Engine: resumer called twice";
  r.fired <- true;
  let t = r.r_eng in
  t.n_suspended <- t.n_suspended - 1;
  push_lane t (Resume (r.r_k, v))

let delay dt =
  if dt < 0. then invalid_arg "Engine.delay: negative delay";
  match !(Domain.DLS.get current) with
  | None -> raise Not_in_process
  | Some t -> (
      t.delay_dt.time <- dt;
      try Effect.perform Delay with Effect.Unhandled _ -> raise Not_in_process)

let yield () = delay 0.

let spawn_child f =
  try Effect.perform (Fork f) with Effect.Unhandled _ -> raise Not_in_process

let suspension register : _ suspension =
  Some
    (fun k ->
      let t = self_engine () in
      t.n_suspended <- t.n_suspended + 1;
      register { fired = false; r_eng = t; r_k = k })

let suspend_with s =
  try Effect.perform (Suspend s) with Effect.Unhandled _ -> raise Not_in_process

let suspend register = suspend_with (suspension register)

(* Outside any process there is no fiber-local slot; reading yields the
   zero value so observers (tracing) can treat "no context" uniformly,
   while writing is a programming error. *)
let get_local () = try Effect.perform Get_local with Effect.Unhandled _ -> 0

let set_local v =
  try Effect.perform (Set_local v) with Effect.Unhandled _ -> raise Not_in_process

(* ------------------------------------------------------------------ *)
(* Process runner

   An [effc] that returned [Some (fun k -> ...)] would build an option
   and a closure per perform. Each handler below is built once instead:
   per engine for [Delay] and [Get_local], which read engine cells; by
   the caller for [Suspend]; once for the effects that only continue.
   Work that must precede the continuation, [effc] does itself: the
   runtime calls the handler right after [effc] returns, so nothing
   runs in between. *)

open Effect.Deep

let continue_unit : ((unit, unit) continuation -> unit) option =
  Some (fun k -> continue k ())

let rec run_process t ?(local = 0) (f : unit -> unit) =
  let local = ref local in
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay -> t.delay_handler
          | Suspend s -> s
          | Get_local ->
              t.local_read <- !local;
              t.get_local_handler
          | Set_local v ->
              local := v;
              continue_unit
          | Fork g ->
              (* The child inherits the local slot's value at fork time
                 (its own copy — later writes don't propagate). *)
              let inherited = !local in
              push_lane t (Call (fun () -> run_process t ~local:inherited g));
              continue_unit
          | _ -> None);
    }
  in
  match_with f () handler

let spawn t f = push_lane t (Call (fun () -> run_process t f))

let exec_action = function
  | Noop -> ()
  | Call f -> f ()
  | Resume_unit k -> continue k ()
  | Resume (k, v) -> continue k v

(* Where the next event comes from. *)
let from_lane = 0
let from_heap = 1
let from_timers = 2
let nothing = 3

let run ?until ?(detect_deadlock = false) t =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let q = t.queue and tq = t.timers in
      (* The heaps' minimum times are read into flat cells, so comparing
         keys boxes no float. *)
      let due = { Pqueue.time = 0. } and timer_due = { Pqueue.time = 0. } in
      (* The earlier of the heap's and the timers' minima by (time, seq),
         with its time in [due]. The lane holds events due now, in
         sequence order, so its head runs next unless that minimum is due
         at this same instant with an earlier sequence number: exactly
         (time, seq) order over all three. *)
      let next () =
        let timed =
          if Pqueue.Timed.is_empty q then
            if Pqueue.Indexed.is_empty tq then nothing
            else begin
              Pqueue.Indexed.read_min_time tq due;
              from_timers
            end
          else begin
            Pqueue.Timed.read_min_time q due;
            if Pqueue.Indexed.is_empty tq then from_heap
            else begin
              Pqueue.Indexed.read_min_time tq timer_due;
              let tt = timer_due.time in
              if
                tt < due.time
                || tt = due.time
                   && Pqueue.Indexed.min_seq tq < Pqueue.Timed.min_seq q
              then begin
                due.time <- tt;
                from_timers
              end
              else from_heap
            end
          end
        in
        if t.lane_len = 0 then timed
        else if timed = nothing || due.time <> t.clock.now then from_lane
        else
          let seq =
            if timed = from_heap then Pqueue.Timed.min_seq q
            else Pqueue.Indexed.min_seq tq
          in
          if seq < t.lane_seqs.(t.lane_head) then timed else from_lane
      in
      let rec loop () =
        let src = next () in
        if src = from_lane then begin
          match until with
          | Some h when t.clock.now > h -> ()
          | _ ->
              let act = pop_lane t in
              t.n_events <- t.n_events + 1;
              exec_action act;
              loop ()
        end
        else if src <> nothing then begin
          match until with
          | Some h when due.time > h -> t.clock.now <- Float.max t.clock.now h
          | _ ->
              t.clock.now <- due.time;
              t.n_events <- t.n_events + 1;
              if src = from_heap then exec_action (Pqueue.Timed.pop_min q)
              else Pqueue.Indexed.value (Pqueue.Indexed.pop_min tq) ();
              loop ()
        end
      in
      loop ();
      let drained = pending t = 0 in
      (match until with
      | Some h when drained -> t.clock.now <- Float.max t.clock.now h
      | _ -> ());
      if detect_deadlock && drained && t.n_suspended > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d process(es) still suspended at t=%g"
                t.n_suspended t.clock.now)))
