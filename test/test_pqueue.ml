(* Property tests for the binary heap (Pqueue.Timed) and the
   cancellation machinery layered on it by Engine.

   The heap powers the hot loop, so it is tested model-based: random
   push/pop sequences replayed against a sorted-list oracle. The
   properties pin down the determinism contract — ties in time pop in
   sequence (i.e. push) order — and that [compact] (the lazy-cancellation
   purge) preserves exactly the kept elements and their relative order.
   Deterministic cases cover the empty heap and Engine-level
   cancel/compaction accounting. *)

let count = Qcheck_count.or_default 200

(* ------------------------------------------------------------------ *)
(* Timed heap: the (time, seq) determinism contract *)

type top = TPush of float | TPop

let times = [ 0.; 0.25; 1.; 1.; 2.; 3.5 ]

let tops_arb =
  let print ops =
    String.concat ";"
      (List.map
         (function TPush t -> Printf.sprintf "push %g" t | TPop -> "pop")
         ops)
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (0 -- 200)
        (frequency
           [ (3, map (fun t -> TPush t) (oneofl times)); (2, return TPop) ]))

let key_cmp (t1, s1) (t2, s2) =
  if t1 <> t2 then Float.compare t1 t2 else Int.compare s1 s2

let prop_timed =
  QCheck.Test.make ~count
    ~name:"Timed pops by (time, seq): ties resolve in push order" tops_arb
    (fun ops ->
      let h = Sim.Pqueue.Timed.create ~dummy:(-1) () in
      let seq = ref 0 in
      (* model: (time, seq) pairs, sorted; payload is the seq itself *)
      let model = ref [] in
      List.for_all
        (function
          | TPush time ->
              Sim.Pqueue.Timed.push h ~time ~seq:!seq !seq;
              model := List.sort key_cmp ((time, !seq) :: !model);
              incr seq;
              true
          | TPop -> (
              match !model with
              | [] -> Sim.Pqueue.Timed.is_empty h
              | (t, s) :: rest ->
                  let mt = Sim.Pqueue.Timed.min_time h in
                  let x = Sim.Pqueue.Timed.pop_min h in
                  model := rest;
                  mt = t && x = s))
        ops
      && Sim.Pqueue.Timed.length h = List.length !model)

let prop_compact =
  QCheck.Test.make ~count
    ~name:"compact keeps exactly the accepted elements, in order"
    QCheck.(list (oneofl times))
    (fun ts ->
      let h = Sim.Pqueue.Timed.create ~dummy:(-1) () in
      List.iteri (fun i t -> Sim.Pqueue.Timed.push h ~time:t ~seq:i i) ts;
      (* Each element is its own seq, so [keep] also checks that the
         predicate sees the seq the element was pushed with. *)
      let keep ~seq x = seq = x && x mod 3 <> 0 in
      Sim.Pqueue.Timed.compact h ~keep;
      let expected =
        List.mapi (fun i t -> (t, i)) ts
        |> List.filter (fun (_, i) -> keep ~seq:i i)
        |> List.sort key_cmp |> List.map snd
      in
      let out = ref [] in
      while not (Sim.Pqueue.Timed.is_empty h) do
        out := Sim.Pqueue.Timed.pop_min h :: !out
      done;
      List.rev !out = expected)

let test_timed_empty () =
  let h = Sim.Pqueue.Timed.create ~dummy:0 () in
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Pqueue.Timed.pop_min: empty heap") (fun () ->
      ignore (Sim.Pqueue.Timed.pop_min h : int));
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Pqueue.Timed.min_time: empty heap") (fun () ->
      ignore (Sim.Pqueue.Timed.min_time h : float))

(* ------------------------------------------------------------------ *)
(* Engine-level cancellation: lazy deletion + compaction accounting *)

(* 300 timers over 30 distinct times (10-way ties), two thirds cancelled
   up front — enough to trip the lazy compaction threshold. Survivors
   must fire exactly once, ordered by (time, schedule order). *)
let test_engine_cancel_compact () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let handles =
    Array.init 300 (fun i ->
        Sim.Engine.schedule_at e
          (float_of_int (i mod 30))
          (fun () -> fired := i :: !fired))
  in
  Array.iteri (fun i h -> if i mod 3 <> 0 then Sim.Engine.cancel h) handles;
  (* cancel is idempotent: a second pass must not skew the census *)
  Array.iteri (fun i h -> if i mod 3 <> 0 then Sim.Engine.cancel h) handles;
  Alcotest.(check int) "pending counts only live events" 100
    (Sim.Engine.pending e);
  Sim.Engine.run e;
  let expected =
    List.init 300 (fun i -> i)
    |> List.filter (fun i -> i mod 3 = 0)
    |> List.sort (fun a b -> key_cmp (float_of_int (a mod 30), a)
                               (float_of_int (b mod 30), b))
  in
  Alcotest.(check (list int)) "survivors fire in (time, seq) order" expected
    (List.rev !fired);
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let test_engine_cancel_after_fire () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  let h = Sim.Engine.schedule_at e 1. (fun () -> incr n) in
  Sim.Engine.run e;
  Alcotest.(check int) "fired once" 1 !n;
  (* cancelling a fired event is a no-op and must not corrupt the
     cancelled-events census behind [pending] *)
  Sim.Engine.cancel h;
  Sim.Engine.cancel h;
  Alcotest.(check int) "pending stays 0" 0 (Sim.Engine.pending e);
  ignore (Sim.Engine.schedule_at e 2. (fun () -> incr n) : Sim.Engine.handle);
  Alcotest.(check int) "new event counted" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "second fired" 2 !n

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pqueue"
    [
      qsuite "timed" [ prop_timed; prop_compact ];
      ( "regressions",
        [ Alcotest.test_case "empty Timed raises" `Quick test_timed_empty ] );
      ( "engine-cancel",
        [
          Alcotest.test_case "mass cancel + compaction" `Quick
            test_engine_cancel_compact;
          Alcotest.test_case "cancel after fire" `Quick
            test_engine_cancel_after_fire;
        ] );
    ]
