(* Model-based test of the event engine. [Sim.Engine] runs events due at
   the current instant from a FIFO lane beside its (time, seq) heap;
   [Engine_ref] is the engine it replaced, where every event sits in the
   heap. Both run the same random process programs on fresh engines, and
   everything observable must agree exactly: the (time, process, step)
   log, timer firings, the deadlock report, and after every [run ~until]
   segment the clock, [events_processed], [pending] and the
   flight-recorder gauges. *)

module type ENGINE = sig
  type t
  type handle
  type 'a resumer

  exception Deadlock of string

  val create : unit -> t
  val current_time : t -> float
  val schedule_after : t -> float -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val spawn : t -> (unit -> unit) -> unit
  val run : ?until:float -> ?detect_deadlock:bool -> t -> unit
  val pending : t -> int
  val suspended : t -> int
  val events_processed : t -> int
  val heap_depth : t -> int
  val heap_capacity : t -> int
  val cancelled_events : t -> int
  val now : unit -> float
  val delay : float -> unit
  val yield : unit -> unit
  val spawn_child : (unit -> unit) -> unit
  val get_local : unit -> int
  val set_local : int -> unit
  val resume : 'a resumer -> 'a -> unit
  val suspend : ('a resumer -> unit) -> 'a
end

(* One step of a process. *)
type op =
  | Delay of float
  | Yield
  | Spawn of op list  (** [spawn_child] a process running these steps *)
  | Park  (** suspend until some process or timer wakes us *)
  | Wake  (** resume the longest-parked process, if any *)
  | Timer of float * timer  (** [schedule_after]; the handle is kept *)
  | Cancel of int  (** cancel timer [i mod n]: pending or already fired *)
  | Get_local
  | Set_local of int

and timer = Log | Wake_from_timer | Spawn_from_timer of op list

type program = {
  procs : op list list;  (** spawned before the first [run] *)
  segments : (float * op list option) list;
      (** [run ~until] horizons, not necessarily increasing, each
          optionally preceded by a [spawn] from outside the run *)
}

type entry =
  | Step of int64 * int * int * int  (** time bits, process, step, value *)
  | Fired of int64 * int  (** time bits, timer *)
  | Segment of int64 * int list
      (** clock bits; events, pending, suspended, heap depth, heap
          capacity, cancelled *)
  | Deadlocked of string

let bits = Int64.bits_of_float

module Run (E : ENGINE) = struct
  type state = {
    eng : E.t;
    log : entry list ref;
    parked : int E.resumer Queue.t;
    mutable timers : E.handle array;
    mutable n_timers : int;
    mutable n_procs : int;
  }

  let emit st e = st.log := e :: !(st.log)

  let fresh_pid st =
    st.n_procs <- st.n_procs + 1;
    st.n_procs - 1

  let wake st v =
    match Queue.take_opt st.parked with
    | Some r ->
        E.resume r v;
        1
    | None -> 0

  let rec exec st pid ops =
    List.iteri
      (fun i op ->
        let v =
          match op with
          | Delay d ->
              E.delay d;
              0
          | Yield ->
              E.yield ();
              0
          | Spawn ops ->
              let c = fresh_pid st in
              E.spawn_child (fun () -> exec st c ops);
              c
          | Park -> E.suspend (fun r -> Queue.push r st.parked)
          | Wake -> wake st pid
          | Timer (d, action) -> add_timer st d action
          | Cancel i ->
              if st.n_timers > 0 then E.cancel st.timers.(i mod st.n_timers);
              st.n_timers
          | Get_local -> E.get_local ()
          | Set_local v ->
              E.set_local v;
              v
        in
        emit st (Step (bits (E.now ()), pid, i, v)))
      ops

  and add_timer st d action =
    let id = st.n_timers in
    let h =
      E.schedule_after st.eng d (fun () ->
          emit st (Fired (bits (E.now ()), id));
          match action with
          | Log -> ()
          | Wake_from_timer -> ignore (wake st (-1 - id) : int)
          | Spawn_from_timer ops ->
              let c = fresh_pid st in
              E.spawn st.eng (fun () -> exec st c ops))
    in
    if id = Array.length st.timers then
      st.timers <- Array.append st.timers (Array.make (max 4 id) h);
    st.timers.(id) <- h;
    st.n_timers <- id + 1;
    id

  let segment st =
    let e = st.eng in
    emit st
      (Segment
         ( bits (E.current_time e),
           [
             E.events_processed e;
             E.pending e;
             E.suspended e;
             E.heap_depth e;
             E.heap_capacity e;
             E.cancelled_events e;
           ] ))

  let run p =
    let st =
      {
        eng = E.create ();
        log = ref [];
        parked = Queue.create ();
        timers = [||];
        n_timers = 0;
        n_procs = 0;
      }
    in
    let spawn ops =
      let pid = fresh_pid st in
      E.spawn st.eng (fun () -> exec st pid ops)
    in
    List.iter spawn p.procs;
    segment st;
    List.iter
      (fun (until, outside) ->
        Option.iter spawn outside;
        E.run ~until st.eng;
        segment st)
      p.segments;
    (try E.run ~detect_deadlock:true st.eng with E.Deadlock m -> emit st (Deadlocked m));
    segment st;
    List.rev !(st.log)
end

module Model = Run (Sim.Engine)
module Reference = Run (Engine_ref)

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_time =
  let open QCheck.Gen in
  frequency
    [
      (3, return 0.);
      (* coincident instants *)
      (4, oneofl [ 0.25; 0.5; 1. ]);
      (* due now once the clock is past 0: the sum rounds to the clock *)
      (1, return 1e-300);
      (3, float_bound_inclusive 1.5);
    ]

let gen_timer ops =
  let open QCheck.Gen in
  frequency
    [ (3, return Log); (2, return Wake_from_timer); (1, map (fun o -> Spawn_from_timer o) ops) ]

let rec gen_ops depth =
  let open QCheck.Gen in
  let child = if depth = 0 then return [] else gen_ops (depth - 1) in
  let op =
    frequency
      [
        (4, map (fun d -> Delay d) gen_time);
        (2, return Yield);
        (2, map (fun o -> Spawn o) child);
        (2, return Park);
        (2, return Wake);
        (3, map2 (fun d t -> Timer (d, t)) gen_time (gen_timer child));
        (2, map (fun i -> Cancel i) small_nat);
        (1, return Get_local);
        (1, map (fun v -> Set_local v) (1 -- 99));
      ]
  in
  list_size (0 -- (if depth = 0 then 4 else 10)) op

let gen_program =
  let open QCheck.Gen in
  let horizon = oneof [ oneofl [ 0.; 0.25; 0.5; 1.; 2. ]; float_bound_inclusive 3. ] in
  map2
    (fun procs segments -> { procs; segments })
    (list_size (1 -- 6) (gen_ops 2))
    (list_size (0 -- 3) (pair horizon (opt (gen_ops 1))))

let rec print_ops ops = "[" ^ String.concat "; " (List.map print_op ops) ^ "]"

and print_op = function
  | Delay d -> Printf.sprintf "delay %h" d
  | Yield -> "yield"
  | Spawn o -> "spawn " ^ print_ops o
  | Park -> "park"
  | Wake -> "wake"
  | Timer (d, Log) -> Printf.sprintf "timer %h log" d
  | Timer (d, Wake_from_timer) -> Printf.sprintf "timer %h wake" d
  | Timer (d, Spawn_from_timer o) -> Printf.sprintf "timer %h spawn %s" d (print_ops o)
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Get_local -> "get_local"
  | Set_local v -> Printf.sprintf "set_local %d" v

let print_program p =
  String.concat "\n"
    (List.mapi (fun i o -> Printf.sprintf "p%d: %s" i (print_ops o)) p.procs
    @ List.map
        (fun (h, o) ->
          Printf.sprintf "run ~until:%h%s" h
            (match o with None -> "" | Some o -> " after spawn " ^ print_ops o))
        p.segments)

let count = Qcheck_count.or_default 500

let prop_matches_reference =
  QCheck.Test.make ~name:"lane engine = heap-only reference" ~count
    (QCheck.make ~print:print_program gen_program)
    (fun p -> Model.run p = Reference.run p)

(* ------------------------------------------------------------------ *)
(* Unit cases *)

(* A wake-up, a zero delay and a fork queued at one instant run after a
   timer due at that instant that was scheduled before them, and before
   one scheduled after them. *)
let test_same_instant_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.delay 1.;
      ignore (Sim.Engine.schedule_after e 0. (fun () -> note "timer before") : Sim.Engine.handle);
      Sim.Engine.spawn_child (fun () -> note "child");
      let r = ref None in
      Sim.Engine.spawn_child (fun () ->
          Sim.Engine.suspend (fun k -> r := Some k);
          note "woken");
      Sim.Engine.yield ();
      note "after yield";
      Option.iter (fun k -> Sim.Engine.resume k ()) !r;
      ignore (Sim.Engine.schedule_after e 0. (fun () -> note "timer after") : Sim.Engine.handle);
      Sim.Engine.delay 0.;
      note "after delay 0");
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "(time, seq) order"
    [ "timer before"; "child"; "after yield"; "woken"; "timer after"; "after delay 0" ]
    (List.rev !log);
  Alcotest.(check (float 0.)) "clock" 1. (Sim.Engine.current_time e)

(* [k] processes park; one more wakes each with a fresh block. *)
let wake_all e ~k held =
  let parked = Queue.create () in
  for _ = 1 to k do
    Sim.Engine.spawn e (fun () ->
        let b : Bytes.t = Sim.Engine.suspend (fun r -> Queue.push r parked) in
        ignore (Sys.opaque_identity b : Bytes.t))
  done;
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.yield ();
      let i = ref 0 in
      Queue.iter
        (fun r ->
          let b = Bytes.make 64 (Char.chr (65 + !i)) in
          Option.iter (fun w -> Weak.set w !i (Some b)) held;
          incr i;
          Sim.Engine.resume r b)
        parked);
  Sim.Engine.run e

(* A drained lane holds nothing of what passed through it: the engine's
   footprint after [k] wake-ups carrying fresh blocks is the same as
   after one (both fit the lane's initial ring), and every block a
   wake-up carried is collected once the run is over. *)
let test_drained_lane_retains_nothing () =
  let footprint k =
    let e = Sim.Engine.create () in
    wake_all e ~k None;
    Alcotest.(check int) "drained" 0 (Sim.Engine.pending e);
    Obj.reachable_words (Obj.repr e)
  in
  Alcotest.(check int) "footprint after 8 wake-ups = after 1" (footprint 1) (footprint 8);
  let k = 8 in
  let held = Weak.create k in
  let e = Sim.Engine.create () in
  wake_all e ~k (Some held);
  Gc.full_major ();
  for i = 0 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "value %d collected" i) false (Weak.check held i)
  done;
  Alcotest.(check int) "engine idle" 0 (Sim.Engine.pending e)

(* Forks and wake-ups past the ring's initial 16 slots grow it without
   reordering what is queued. *)
let test_lane_growth_keeps_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  Sim.Engine.spawn e (fun () ->
      for i = 0 to 39 do
        Sim.Engine.spawn_child (fun () -> order := i :: !order)
      done);
  Alcotest.(check int) "one queued" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fork order" (List.init 40 Fun.id) (List.rev !order);
  Alcotest.(check int) "events" 41 (Sim.Engine.events_processed e);
  Alcotest.(check int) "capacity of one heap that held all 40" 64 (Sim.Engine.heap_capacity e)

let () =
  Alcotest.run "engine-model"
    [
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
      ( "lane",
        [
          Alcotest.test_case "same-instant order" `Quick test_same_instant_order;
          Alcotest.test_case "growth keeps order" `Quick test_lane_growth_keeps_order;
          Alcotest.test_case "drained lane retains nothing" `Quick
            test_drained_lane_retains_nothing;
        ] );
    ]
