(* What an event does when it fires. The common timer paths carry the
   captured continuation directly instead of a [fun () -> continue k v]
   thunk, which removes one closure allocation per delay/resume — the
   two dominant event kinds. [Noop] doubles as the dummy payload of the
   heap and as the "already fired" marker: executed events have their
   action overwritten so [cancel] can distinguish fired from pending and
   so the closure/continuation is released immediately. *)
type action =
  | Noop
  | Call of (unit -> unit)
  | Resume_unit of (unit, unit) Effect.Deep.continuation
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> action

type event = {
  mutable cancelled : bool;
  (* Shared with the owning engine: the count of cancelled events still
     sitting in the heap. A ref rather than a back-pointer to the engine
     so the heap's dummy event can exist before any engine does. *)
  cancels : int ref;
  mutable action : action;
}

type handle = event

(* Events due at the current clock that nobody can cancel — wake-ups,
   zero-length delays, forks — skip the heap: they wait in a FIFO ring,
   in sequence order, beside it. Their time is implicit: nothing enters
   the lane except at the current clock, and the clock cannot advance
   past an event still in it, because [run] only takes a later heap
   event once the lane is empty. *)
type t = {
  (* A [float ref] rather than a [mutable float] field: the ref cell is a
     flat float record, so the per-event clock advance stores in place
     instead of boxing a fresh float into this mixed record. *)
  clock : float ref;
  mutable next_seq : int;
  (* cancelled-but-not-yet-popped events in [queue]; drives lazy
     compaction and the [pending] count *)
  cancels : int ref;
  mutable n_suspended : int;
  mutable n_events : int;  (* events executed by [run], for perf reporting *)
  queue : event Pqueue.Timed.t;
  (* the same-instant lane: a ring whose length is a power of two *)
  mutable lane_seqs : int array;
  mutable lane_acts : action array;
  mutable lane_head : int;
  mutable lane_len : int;
  (* most events ever queued at once, heap and lane together *)
  mutable high_water : int;
}

exception Not_in_process
exception Deadlock of string

let create () =
  {
    clock = ref 0.;
    next_seq = 0;
    cancels = ref 0;
    n_suspended = 0;
    n_events = 0;
    queue =
      Pqueue.Timed.create
        ~dummy:{ cancelled = true; cancels = ref 0; action = Noop }
        ();
    lane_seqs = Array.make 16 0;
    lane_acts = Array.make 16 Noop;
    lane_head = 0;
    lane_len = 0;
    high_water = 0;
  }

let current_time t = !(t.clock)

let note_depth t =
  let d = Pqueue.Timed.length t.queue + t.lane_len in
  if d > t.high_water then t.high_water <- d

(* Unvalidated pushes shared by every scheduling path; sequence numbers
   are allocated here in call order, which fixes the deterministic
   tie-break across the heap and the lane alike. *)
let push_event t time ev =
  Pqueue.Timed.push t.queue ~time ~seq:t.next_seq ev;
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

let schedule_at t time f =
  if time < !(t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)"
         time !(t.clock));
  let ev = { cancelled = false; cancels = t.cancels; action = Call f } in
  push_event t time ev;
  ev

let schedule_after t dt f =
  if dt < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (!(t.clock) +. dt) f

let cancel ev =
  (* Idempotent, and a no-op once the event has fired ([run] clears the
     action), so the shared counter stays an exact census of cancelled
     events still in the heap. *)
  if (not ev.cancelled) && ev.action != Noop then begin
    ev.cancelled <- true;
    incr ev.cancels
  end

(* Born cancelled and never queued, so [cancel] leaves it alone. *)
let no_event = { cancelled = true; cancels = ref 0; action = Noop }

let pending t = Pqueue.Timed.length t.queue + t.lane_len - !(t.cancels)
let suspended t = t.n_suspended
let events_processed t = t.n_events

(* Flight-recorder inspection: raw queue occupancy (live + cancelled,
   lane included) and the lazy-cancellation census, separately —
   [pending] nets them out, but telemetry wants to watch the garbage
   fraction that drives compaction. The capacity is the size one heap
   holding every queued event would have grown to: 16 slots, doubled
   until it covered the high-water mark, as [Pqueue.Timed] grows. All
   are O(1) reads, or O(log) for the capacity. *)
let heap_depth t = Pqueue.Timed.length t.queue + t.lane_len

let heap_capacity t =
  if t.high_water = 0 then 0
  else begin
    let c = ref 16 in
    while !c < t.high_water do
      c := 2 * !c
    done;
    !c
  end

let cancelled_events t = !(t.cancels)

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
  | Some t -> !(t.clock)
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

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
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
  try Effect.perform (Delay dt) with Effect.Unhandled _ -> raise Not_in_process

let yield () = delay 0.

let spawn_child f =
  try Effect.perform (Fork f) with Effect.Unhandled _ -> raise Not_in_process

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_process

(* Outside any process there is no fiber-local slot; reading yields the
   zero value so observers (tracing) can treat "no context" uniformly,
   while writing is a programming error. *)
let get_local () = try Effect.perform Get_local with Effect.Unhandled _ -> 0

let set_local v =
  try Effect.perform (Set_local v) with Effect.Unhandled _ -> raise Not_in_process

(* ------------------------------------------------------------------ *)
(* Process runner *)

open Effect.Deep

let rec run_process t ?(local = 0) (f : unit -> unit) =
  let local = ref local in
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay dt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* dt >= 0 was validated by [delay] *)
                  let time = !(t.clock) +. dt in
                  if time = !(t.clock) then push_lane t (Resume_unit k)
                  else
                    push_event t time
                      {
                        cancelled = false;
                        cancels = t.cancels;
                        action = Resume_unit k;
                      })
          | Get_local ->
              Some (fun (k : (a, unit) continuation) -> continue k !local)
          | Set_local v ->
              Some
                (fun (k : (a, unit) continuation) ->
                  local := v;
                  continue k ())
          | Fork g ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* The child inherits the local slot's value at fork time
                     (its own copy — later writes don't propagate). *)
                  let inherited = !local in
                  push_lane t (Call (fun () -> run_process t ~local:inherited g));
                  continue k ())
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.n_suspended <- t.n_suspended + 1;
                  register { fired = false; r_eng = t; r_k = k })
          | _ -> None);
    }
  in
  match_with f () handler

let spawn t f = push_lane t (Call (fun () -> run_process t f))

(* Compact the heap once cancelled events outnumber live ones (and are
   numerous enough for the O(n) sweep to be worth it). Survivors keep
   their (time, seq) keys, so execution order is unaffected. Lane
   entries count as queued events, so compaction happens at the same
   moments as when every event sat in the heap. *)
let compact_threshold = 64

let maybe_compact t =
  let c = !(t.cancels) in
  if c > compact_threshold && 2 * c > Pqueue.Timed.length t.queue + t.lane_len
  then begin
    Pqueue.Timed.compact t.queue ~keep:(fun ~seq:_ ev -> not ev.cancelled);
    t.cancels := 0
  end

let exec_action = function
  | Noop -> ()
  | Call f -> f ()
  | Resume_unit k -> continue k ()
  | Resume (k, v) -> continue k v

let run ?until ?(detect_deadlock = false) t =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let q = t.queue in
      (* The lane holds events due now, in sequence order, so its head
         runs next unless the heap's minimum is due at this same instant
         with an earlier sequence number: exactly (time, seq) order over
         both. A cancelled heap minimum is dropped at the point where it
         would have run, as before the lane existed. *)
      let heap_first () =
        (not (Pqueue.Timed.is_empty q))
        && Pqueue.Timed.min_time q = !(t.clock)
        && Pqueue.Timed.min_seq q < t.lane_seqs.(t.lane_head)
      in
      let rec loop () =
        maybe_compact t;
        if t.lane_len > 0 && not (heap_first ()) then begin
          match until with
          | Some h when !(t.clock) > h -> ()
          | _ ->
              let act = pop_lane t in
              t.n_events <- t.n_events + 1;
              exec_action act;
              loop ()
        end
        else if not (Pqueue.Timed.is_empty q) then begin
          let ev = Pqueue.Timed.peek_min q in
          if ev.cancelled then begin
            ignore (Pqueue.Timed.pop_min q : event);
            decr t.cancels;
            loop ()
          end
          else
            let time = Pqueue.Timed.min_time q in
            match until with
            | Some h when time > h -> t.clock := Float.max !(t.clock) h
            | _ ->
                ignore (Pqueue.Timed.pop_min q : event);
                t.clock := time;
                t.n_events <- t.n_events + 1;
                let act = ev.action in
                ev.action <- Noop;
                exec_action act;
                loop ()
        end
      in
      loop ();
      let drained = Pqueue.Timed.is_empty q && t.lane_len = 0 in
      (match until with
      | Some h when drained -> t.clock := Float.max !(t.clock) h
      | _ -> ());
      if detect_deadlock && drained && t.n_suspended > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d process(es) still suspended at t=%g"
                t.n_suspended !(t.clock))))
