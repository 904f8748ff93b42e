(* Property tests for the binary heaps (Pqueue.Timed and
   Pqueue.Indexed) and the timers Engine builds on the indexed one.

   The heaps power the hot loop, so they are tested model-based: random
   operation sequences replayed against a sorted-list oracle. The
   properties pin down the determinism contract — ties in time pop in
   sequence (i.e. push) order — that [compact] (the store's purge)
   preserves exactly the kept elements and their relative order, and
   that re-keying or removing an indexed element in place leaves the
   heap holding exactly the model's keys. Deterministic cases cover the
   empty heap and Engine-level timer accounting. *)

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
(* Indexed heap: re-keys and removals in place *)

type iop = ISet of int * float | IRemove of int | IPop

let n_elts = 6

let iops_arb =
  let print ops =
    String.concat ";"
      (List.map
         (function
           | ISet (i, t) -> Printf.sprintf "set %d %g" i t
           | IRemove i -> Printf.sprintf "remove %d" i
           | IPop -> "pop")
         ops)
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (0 -- 200)
        (frequency
           [
             (4, map2 (fun i t -> ISet (i, t)) (0 -- (n_elts - 1)) (oneofl times));
             (2, map (fun i -> IRemove i) (0 -- (n_elts - 1)));
             (2, return IPop);
           ]))

let prop_indexed =
  QCheck.Test.make ~count
    ~name:"Indexed = sorted-list model under re-keys and removals" iops_arb
    (fun ops ->
      let module I = Sim.Pqueue.Indexed in
      let h = I.create ~dummy:(-1) () in
      let elts = Array.init n_elts I.elt in
      let seq = ref 0 in
      (* model: (time, seq, element) for every queued element *)
      let model = ref [] in
      let sorted () =
        List.sort (fun (t1, s1, _) (t2, s2, _) -> key_cmp (t1, s1) (t2, s2)) !model
      in
      let cell = { Sim.Pqueue.time = nan } in
      let agrees () =
        I.length h = List.length !model
        &&
        match sorted () with
        | [] -> I.is_empty h
        | (t, s, _) :: _ ->
            I.read_min_time h cell;
            cell.time = t && I.min_seq h = s
      in
      List.for_all
        (fun op ->
          (match op with
          | ISet (i, time) ->
              I.set h elts.(i) { time } ~seq:!seq;
              model := (time, !seq, i) :: List.filter (fun (_, _, j) -> j <> i) !model;
              incr seq;
              true
          | IRemove i ->
              I.remove h elts.(i);
              model := List.filter (fun (_, _, j) -> j <> i) !model;
              true
          | IPop -> (
              match sorted () with
              | [] -> I.is_empty h
              | (_, _, i) :: _ ->
                  let e = I.pop_min h in
                  model := List.filter (fun (_, _, j) -> j <> i) !model;
                  I.value e = i))
          && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Engine-level timers: clearing and re-arming in place *)

(* 300 timers over 30 distinct times (10-way ties), two thirds cleared
   up front. Survivors must fire exactly once, ordered by (time, arming
   order), and a cleared timer leaves nothing queued behind. *)
let test_engine_mass_clear () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let timers =
    Array.init 300 (fun i ->
        let tm = Sim.Engine.timer e (fun () -> fired := i :: !fired) in
        Sim.Engine.arm_at tm (float_of_int (i mod 30));
        tm)
  in
  Array.iteri (fun i tm -> if i mod 3 <> 0 then Sim.Engine.clear tm) timers;
  (* clear is idempotent: a second pass changes nothing *)
  Array.iteri (fun i tm -> if i mod 3 <> 0 then Sim.Engine.clear tm) timers;
  Alcotest.(check int) "pending counts only armed timers" 100
    (Sim.Engine.pending e);
  Alcotest.(check int) "capacity of one heap that held all 300" 512
    (Sim.Engine.heap_capacity e);
  Sim.Engine.run e;
  let expected =
    List.init 300 (fun i -> i)
    |> List.filter (fun i -> i mod 3 = 0)
    |> List.sort (fun a b -> key_cmp (float_of_int (a mod 30), a)
                               (float_of_int (b mod 30), b))
  in
  Alcotest.(check (list int)) "survivors fire in (time, seq) order" expected
    (List.rev !fired);
  Alcotest.(check int) "events" 100 (Sim.Engine.events_processed e);
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let test_engine_clear_after_fire () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  let tm = Sim.Engine.timer e (fun () -> incr n) in
  Sim.Engine.arm_at tm 1.;
  Sim.Engine.run e;
  Alcotest.(check int) "fired once" 1 !n;
  (* clearing a fired timer is a no-op *)
  Sim.Engine.clear tm;
  Sim.Engine.clear tm;
  Alcotest.(check int) "pending stays 0" 0 (Sim.Engine.pending e);
  Sim.Engine.arm_at tm 2.;
  Alcotest.(check int) "re-armed timer counted" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "fired again" 2 !n

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pqueue"
    [
      qsuite "timed" [ prop_timed; prop_compact ];
      qsuite "indexed" [ prop_indexed ];
      ( "regressions",
        [ Alcotest.test_case "empty Timed raises" `Quick test_timed_empty ] );
      (* Alcotest shortens a long case name to fit beside the widest
         group name, so this one keeps the width of the group it
         replaced and the "timed" cases print as they did. *)
      ( "engine-timers",
        [
          Alcotest.test_case "mass clear keeps order" `Quick
            test_engine_mass_clear;
          Alcotest.test_case "clear after fire" `Quick
            test_engine_clear_after_fire;
        ] );
    ]
