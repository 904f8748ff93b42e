(* Reference model for test_engine_model.ml: the event engine as it was
   written before same-instant events got a lane of their own, kept
   verbatim — every event, due now or later, is an event record in the
   (time, seq) heap. It is the oracle [Sim.Engine] must match step for
   step. *)

open Sim

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
  }

let current_time t = !(t.clock)

(* Unvalidated push shared by every scheduling path; sequence numbers are
   allocated here in call order, which fixes the deterministic tie-break. *)
let push_event t time ev =
  Pqueue.Timed.push t.queue ~time ~seq:t.next_seq ev;
  t.next_seq <- t.next_seq + 1

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

let pending t = Pqueue.Timed.length t.queue - !(t.cancels)
let suspended t = t.n_suspended
let events_processed t = t.n_events

(* Flight-recorder inspection: raw heap occupancy (live + cancelled) and
   the lazy-cancellation census, separately — [pending] nets them out,
   but telemetry wants to watch the garbage fraction that drives
   compaction. Both are O(1) reads. *)
let heap_depth t = Pqueue.Timed.length t.queue
let heap_capacity t = Pqueue.Timed.capacity t.queue
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
  push_event t !(t.clock)
    { cancelled = false; cancels = t.cancels; action = Resume (r.r_k, v) }

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
                  push_event t (!(t.clock) +. dt)
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
                  push_event t !(t.clock)
                    {
                      cancelled = false;
                      cancels = t.cancels;
                      action = Call (fun () -> run_process t ~local:inherited g);
                    };
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

let spawn t f =
  ignore (schedule_at t !(t.clock) (fun () -> run_process t f) : handle)

(* Compact the heap once cancelled events outnumber live ones (and are
   numerous enough for the O(n) sweep to be worth it). Survivors keep
   their (time, seq) keys, so execution order is unaffected. *)
let compact_threshold = 64

let maybe_compact t =
  let c = !(t.cancels) in
  if c > compact_threshold && 2 * c > Pqueue.Timed.length t.queue then begin
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
      let rec loop () =
        maybe_compact t;
        if not (Pqueue.Timed.is_empty q) then begin
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
      (match until with
      | Some h when Pqueue.Timed.is_empty q -> t.clock := Float.max !(t.clock) h
      | _ -> ());
      if detect_deadlock && Pqueue.Timed.is_empty q && t.n_suspended > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d process(es) still suspended at t=%g"
                t.n_suspended !(t.clock))))
