(* Tests for the simulation substrate: engine, sync primitives, CPU, disk,
   network, RNG, distributions, priority queue. The heap's model-based
   properties are in test_pqueue.ml. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Each property names its own default count. *)
let count = Qcheck_count.or_default

(* ------------------------------------------------------------------ *)
(* Pqueue: each int is pushed keyed by its own value, in push order *)

let heap_of xs =
  let h = Sim.Pqueue.Timed.create ~dummy:0 () in
  List.iteri (fun seq x -> Sim.Pqueue.Timed.push h ~time:(float x) ~seq x) xs;
  h

let drain h =
  let out = ref [] in
  while not (Sim.Pqueue.Timed.is_empty h) do
    out := Sim.Pqueue.Timed.pop_min h :: !out
  done;
  List.rev !out

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let test_pqueue_order () =
  Alcotest.(check (list int))
    "sorted" [ 0; 1; 1; 3; 4; 5; 9 ]
    (drain (heap_of [ 5; 1; 4; 1; 3; 9; 0 ]))

let test_pqueue_empty () =
  let h = heap_of [] in
  check_bool "empty" true (Sim.Pqueue.Timed.is_empty h);
  check_bool "pop raises" true (raises_invalid (fun () -> Sim.Pqueue.Timed.pop_min h));
  check_bool "peek raises" true (raises_invalid (fun () -> Sim.Pqueue.Timed.peek_min h))

let test_pqueue_peek_stable () =
  let h = heap_of [ 2; 1 ] in
  check_int "peek min" 1 (Sim.Pqueue.Timed.peek_min h);
  check_int "length unchanged" 2 (Sim.Pqueue.Timed.length h)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains any list in sorted order"
    ~count:(count 200)
    QCheck.(list small_signed_int)
    (fun xs -> drain (heap_of xs) = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7 and b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    check_float "same stream" (Sim.Rng.float a) (Sim.Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Sim.Rng.float a = Sim.Rng.float b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let test_rng_split_independent () =
  let parent = Sim.Rng.create 3 in
  let child = Sim.Rng.split parent in
  (* The child stream must not replay the parent's continuation. *)
  let p = List.init 20 (fun _ -> Sim.Rng.bits64 parent) in
  let c = List.init 20 (fun _ -> Sim.Rng.bits64 child) in
  check_bool "split independent" true (p <> c)

let test_rng_copy () =
  let a = Sim.Rng.create 9 in
  let b = Sim.Rng.copy a in
  check_float "copy replays" (Sim.Rng.float a) (Sim.Rng.float b)

let test_rng_int_bounds () =
  let rng = Sim.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 7 in
    check_bool "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_invalid () =
  let rng = Sim.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int rng 0))

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:(count 100)
    QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let f = Sim.Rng.float rng in
        if f < 0. || f >= 1. then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Dist *)

let mean_of n f =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_dist_exponential_mean () =
  let rng = Sim.Rng.create 21 in
  let m = mean_of 20_000 (fun () -> Sim.Dist.exponential rng ~mean:2.5) in
  check_float_eps 0.1 "mean ~2.5" 2.5 m

let test_dist_exponential_invalid () =
  let rng = Sim.Rng.create 1 in
  Alcotest.check_raises "bad mean"
    (Invalid_argument "Dist.exponential: mean must be positive") (fun () ->
      ignore (Sim.Dist.exponential rng ~mean:0.))

let test_dist_lognormal_mean_cv () =
  let rng = Sim.Rng.create 22 in
  let m =
    mean_of 50_000 (fun () -> Sim.Dist.lognormal_mean_cv rng ~mean:1.6 ~cv:1.0)
  in
  check_float_eps 0.08 "mean ~1.6" 1.6 m

let test_dist_lognormal_cv_zero () =
  let rng = Sim.Rng.create 23 in
  check_float "degenerate" 3.0 (Sim.Dist.lognormal_mean_cv rng ~mean:3.0 ~cv:0.)

let test_dist_normal_mean () =
  let rng = Sim.Rng.create 24 in
  let m = mean_of 20_000 (fun () -> Sim.Dist.normal rng ~mu:5.0 ~sigma:2.0) in
  check_float_eps 0.1 "mean ~5" 5.0 m

let test_zipf_bounds () =
  let z = Sim.Dist.zipf ~n:10 ~s:1.0 in
  let rng = Sim.Rng.create 27 in
  for _ = 1 to 1000 do
    let k = Sim.Dist.Discrete.draw z rng in
    check_bool "rank in range" true (k >= 0 && k < 10)
  done

let test_zipf_skew () =
  (* Rank 0 must be sampled more often than rank 9 under s=1. *)
  let z = Sim.Dist.zipf ~n:10 ~s:1.0 in
  let rng = Sim.Rng.create 28 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Sim.Dist.Discrete.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank0 > rank9" true (counts.(0) > 3 * counts.(9))

let test_zipf_uniform_when_s0 () =
  let z = Sim.Dist.zipf ~n:4 ~s:0.0 in
  let rng = Sim.Rng.create 29 in
  let counts = Array.make 4 0 in
  for _ = 1 to 40_000 do
    let k = Sim.Dist.Discrete.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 8_000 && c < 12_000))
    counts

let test_discrete_weights () =
  let d = Sim.Dist.Discrete.make [| 1.0; 0.0; 3.0 |] in
  let rng = Sim.Rng.create 30 in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let k = Sim.Dist.Discrete.draw d rng in
    counts.(k) <- counts.(k) + 1
  done;
  check_int "zero-weight never drawn" 0 counts.(1);
  check_bool "3x ratio" true
    (float_of_int counts.(2) /. float_of_int counts.(0) > 2.5)

let test_discrete_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Discrete.make: empty weights")
    (fun () -> ignore (Sim.Dist.Discrete.make [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Discrete.make: negative weight") (fun () ->
      ignore (Sim.Dist.Discrete.make [| 1.0; -1.0 |]))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_event_order () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_at eng 2.0 (fun () -> log := 2 :: !log);
  Sim.Engine.schedule_at eng 1.0 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule_at eng 3.0 (fun () -> log := 3 :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_same_time () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule_at eng 1.0 (fun () -> log := i :: !log)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_clock_advances () =
  let eng = Sim.Engine.create () in
  let seen = ref 0. in
  Sim.Engine.schedule_at eng 4.5 (fun () -> seen := Sim.Engine.current_time eng);
  Sim.Engine.run eng;
  check_float "clock at event" 4.5 !seen

let test_engine_past_rejected () =
  let eng = Sim.Engine.create () in
  Sim.Engine.schedule_at eng 1.0 (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule_at: time 0.5 is in the past (now 1)")
        (fun () -> Sim.Engine.schedule_at eng 0.5 ignore));
  Sim.Engine.run eng

let test_timer_cleared () =
  let eng = Sim.Engine.create () in
  let fired = ref false in
  let tm = Sim.Engine.timer eng (fun () -> fired := true) in
  Sim.Engine.arm_at tm 1.0;
  Alcotest.(check int) "armed" 1 (Sim.Engine.pending eng);
  Sim.Engine.clear tm;
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  check_bool "never fired" false !fired;
  Alcotest.(check int) "no event ran" 0 (Sim.Engine.events_processed eng)

(* A timer armed first for an instant, then an event scheduled for it,
   then the timer re-armed for the same instant: the re-arm takes a
   fresh sequence number, so the event runs first. Re-arming moves the
   timer; it does not add a second firing. *)
let test_timer_rearm_fresh_seq () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  let tm = Sim.Engine.timer eng (fun () -> log := "timer" :: !log) in
  Sim.Engine.arm_at tm 1.0;
  Sim.Engine.schedule_at eng 1.0 (fun () -> log := "event" :: !log);
  Sim.Engine.arm_after tm 1.0;
  Alcotest.(check int) "two queued" 2 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "event, then timer" [ "event"; "timer" ] (List.rev !log);
  Alcotest.(check int) "two events ran" 2 (Sim.Engine.events_processed eng);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.arm_at: time 0.5 is in the past (now 1)") (fun () ->
      Sim.Engine.arm_at tm 0.5);
  Alcotest.check_raises "past, in a cell"
    (Invalid_argument "Engine.arm_at_cell: time 0.5 is in the past (now 1)")
    (fun () -> Sim.Engine.arm_at_cell tm { Sim.Pqueue.time = 0.5 })

let test_timer_run_until () =
  let eng = Sim.Engine.create () in
  let fired = ref [] in
  let tm = Sim.Engine.timer eng (fun () -> fired := 5 :: !fired) in
  Sim.Engine.arm_at tm 5.0;
  Sim.Engine.schedule_at eng 1.0 (fun () -> fired := 1 :: !fired);
  Sim.Engine.run ~until:2.0 eng;
  Alcotest.(check (list int)) "only the early event" [ 1 ] !fired;
  check_float "clock clamped" 2.0 (Sim.Engine.current_time eng);
  Alcotest.(check int) "still armed" 1 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "timer after resume" [ 5; 1 ] !fired;
  check_float "clock at the timer" 5.0 (Sim.Engine.current_time eng)

let test_engine_run_until () =
  let eng = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.schedule_at eng 1.0 (fun () -> fired := 1 :: !fired);
  Sim.Engine.schedule_at eng 5.0 (fun () -> fired := 5 :: !fired);
  Sim.Engine.run ~until:2.0 eng;
  Alcotest.(check (list int)) "only early" [ 1 ] !fired;
  check_float "clock clamped" 2.0 (Sim.Engine.current_time eng);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "rest after resume" [ 5; 1 ] !fired

let test_engine_delay_and_now () =
  let eng = Sim.Engine.create () in
  let ts = ref [] in
  Sim.Engine.spawn eng (fun () ->
      ts := Sim.Engine.now () :: !ts;
      Sim.Engine.delay 1.5;
      ts := Sim.Engine.now () :: !ts;
      Sim.Engine.delay 0.5;
      ts := Sim.Engine.now () :: !ts);
  Sim.Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "times" [ 2.0; 1.5; 0.0 ] !ts

let test_engine_spawn_child () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.spawn_child (fun () -> log := "child" :: !log);
      log := "parent" :: !log);
  Sim.Engine.run eng;
  (* Parent continues first; child runs at the same timestamp afterwards. *)
  Alcotest.(check (list string)) "order" [ "parent"; "child" ] (List.rev !log)

let test_engine_yield_interleaves () =
  let eng = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      log := "a1" :: !log;
      Sim.Engine.yield ();
      log := "a2" :: !log);
  Sim.Engine.spawn eng (fun () -> log := "b" :: !log);
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b"; "a2" ] (List.rev !log)

let test_engine_not_in_process () =
  Alcotest.check_raises "now outside" Sim.Engine.Not_in_process (fun () ->
      ignore (Sim.Engine.now ()))

let test_engine_negative_delay () =
  let eng = Sim.Engine.create () in
  let raised = ref false in
  Sim.Engine.spawn eng (fun () ->
      try Sim.Engine.delay (-1.) with Invalid_argument _ -> raised := true);
  Sim.Engine.run eng;
  check_bool "negative delay rejected" true !raised

let test_engine_deadlock_detection () =
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create () in
  Sim.Engine.spawn eng (fun () -> ignore (Sim.Mailbox.recv mb));
  let raised = ref false in
  (try Sim.Engine.run ~detect_deadlock:true eng
   with Sim.Engine.Deadlock _ -> raised := true);
  check_bool "deadlock detected" true !raised

let test_engine_suspended_count () =
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create () in
  Sim.Engine.spawn eng (fun () -> ignore (Sim.Mailbox.recv mb));
  Sim.Engine.run eng;
  check_int "one suspended" 1 (Sim.Engine.suspended eng);
  Sim.Mailbox.send mb 1;
  Sim.Engine.run eng;
  check_int "resumed" 0 (Sim.Engine.suspended eng)

let test_engine_determinism () =
  (* Two identical simulations produce identical event traces. *)
  let run () =
    let eng = Sim.Engine.create () in
    let log = ref [] in
    let rng = Sim.Rng.create 77 in
    for i = 1 to 20 do
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.delay (Sim.Rng.float rng);
          log := (i, Sim.Engine.now ()) :: !log)
    done;
    Sim.Engine.run eng;
    !log
  in
  check_bool "deterministic" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Rwlock / Latch *)

let test_rwlock_readers_share () =
  let eng = Sim.Engine.create () in
  let l = Sim.Rwlock.create () in
  let t_done = ref [] in
  for _ = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Rwlock.rd_lock l;
        Sim.Engine.delay 1.0;
        Sim.Rwlock.rd_unlock l;
        t_done := Sim.Engine.now () :: !t_done)
  done;
  Sim.Engine.run eng;
  List.iter (fun t -> check_float "parallel readers" 1.0 t) !t_done

let test_rwlock_writer_excludes () =
  let eng = Sim.Engine.create () in
  let l = Sim.Rwlock.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Rwlock.wr_lock l;
      Sim.Engine.delay 1.0;
      Sim.Rwlock.wr_unlock l;
      log := ("w", Sim.Engine.now ()) :: !log);
  Sim.Engine.spawn eng (fun () ->
      Sim.Rwlock.rd_lock l;
      log := ("r", Sim.Engine.now ()) :: !log;
      Sim.Rwlock.rd_unlock l);
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string (float 1e-9))))
    "reader waits for writer"
    [ ("w", 1.0); ("r", 1.0) ]
    (List.rev !log)

let test_rwlock_fifo_no_starvation () =
  (* reader holds; writer queues; new reader queues behind writer. *)
  let eng = Sim.Engine.create () in
  let l = Sim.Rwlock.create () in
  let log = ref [] in
  Sim.Engine.spawn eng (fun () ->
      Sim.Rwlock.rd_lock l;
      Sim.Engine.delay 1.0;
      Sim.Rwlock.rd_unlock l);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 0.1;
      Sim.Rwlock.wr_lock l;
      log := ("w", Sim.Engine.now ()) :: !log;
      Sim.Engine.delay 1.0;
      Sim.Rwlock.wr_unlock l);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 0.2;
      Sim.Rwlock.rd_lock l;
      log := ("r2", Sim.Engine.now ()) :: !log;
      Sim.Rwlock.rd_unlock l);
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string (float 1e-9))))
    "writer admitted before late reader"
    [ ("w", 1.0); ("r2", 2.0) ]
    (List.rev !log)

let test_rwlock_counters () =
  let eng = Sim.Engine.create () in
  let l = Sim.Rwlock.create () in
  Sim.Engine.spawn eng (fun () ->
      Sim.Rwlock.with_rd l ignore;
      Sim.Rwlock.with_rd l ignore;
      Sim.Rwlock.with_wr l ignore);
  Sim.Engine.run eng;
  check_int "rd count" 2 (Sim.Rwlock.rd_acquisitions l);
  check_int "wr count" 1 (Sim.Rwlock.wr_acquisitions l)

let test_rwlock_wr_unlock_unheld () =
  let l = Sim.Rwlock.create () in
  Alcotest.check_raises "bad unlock" (Invalid_argument "Rwlock.wr_unlock: no writer")
    (fun () -> Sim.Rwlock.wr_unlock l)

let test_rwlock_with_wr_exn_safe () =
  let eng = Sim.Engine.create () in
  let l = Sim.Rwlock.create () in
  let relocked = ref false in
  Sim.Engine.spawn eng (fun () ->
      (try Sim.Rwlock.with_wr l (fun () -> failwith "boom")
       with Failure _ -> ());
      (* Would wait forever had the failure kept the lock. *)
      Sim.Rwlock.wr_lock l;
      relocked := true);
  Sim.Engine.run eng;
  check_bool "released" true !relocked

let test_latch () =
  let eng = Sim.Engine.create () in
  let l = Sim.Latch.create 3 in
  let released = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      Sim.Latch.wait l;
      released := Sim.Engine.now ());
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.delay (float_of_int i);
        Sim.Latch.arrive l)
  done;
  Sim.Engine.run eng;
  check_float "released at last arrive" 3.0 !released;
  check_int "zero remaining" 0 (Sim.Latch.remaining l)

let test_latch_zero_immediate () =
  let eng = Sim.Engine.create () in
  let l = Sim.Latch.create 0 in
  let passed = ref false in
  Sim.Engine.spawn eng (fun () ->
      Sim.Latch.wait l;
      passed := true);
  Sim.Engine.run eng;
  check_bool "no block" true !passed

let test_latch_extra_arrive () =
  let l = Sim.Latch.create 1 in
  Sim.Latch.arrive l;
  Alcotest.check_raises "extra" (Invalid_argument "Latch.arrive: already at zero")
    (fun () -> Sim.Latch.arrive l)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref [] in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Sim.Mailbox.recv mb :: !got
      done);
  Sim.Engine.spawn eng (fun () ->
      Sim.Mailbox.send mb 1;
      Sim.Mailbox.send mb 2;
      Sim.Mailbox.send mb 3);
  Sim.Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got_at = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      ignore (Sim.Mailbox.recv mb);
      got_at := Sim.Engine.now ());
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 3.0;
      Sim.Mailbox.send mb 42);
  Sim.Engine.run eng;
  check_float "received when sent" 3.0 !got_at

let test_mailbox_receivers_fifo () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn eng (fun () ->
        let v = Sim.Mailbox.recv mb in
        got := (i, v) :: !got)
  done;
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 1.0;
      Sim.Mailbox.send mb "a";
      Sim.Mailbox.send mb "b";
      Sim.Mailbox.send mb "c");
  Sim.Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "earliest receiver first"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !got)

let test_mailbox_try_recv () =
  let mb = Sim.Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Sim.Mailbox.try_recv mb);
  Sim.Mailbox.send mb 5;
  Alcotest.(check (option int)) "one" (Some 5) (Sim.Mailbox.try_recv mb);
  check_int "drained" 0 (Sim.Mailbox.length mb)

let test_mailbox_recv_timeout_expires () =
  let eng = Sim.Engine.create () in
  let mb : int Sim.Mailbox.t = Sim.Mailbox.create () in
  let got = ref (Some 99) in
  let at = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      got := Sim.Mailbox.recv_timeout mb ~timeout:2.0;
      at := Sim.Engine.now ());
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !got;
  check_float "at deadline" 2.0 !at

let test_mailbox_recv_timeout_delivers () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref None in
  Sim.Engine.spawn eng (fun () -> got := Sim.Mailbox.recv_timeout mb ~timeout:5.0);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 1.0;
      Sim.Mailbox.send mb 7);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "delivered in time" (Some 7) !got

let test_mailbox_recv_timeout_immediate () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  Sim.Mailbox.send mb 3;
  let got = ref None in
  Sim.Engine.spawn eng (fun () -> got := Sim.Mailbox.recv_timeout mb ~timeout:0.5);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "already queued" (Some 3) !got

let test_mailbox_recv_timeout_infinite () =
  (* An infinite timeout is a plain [recv]: no timer is queued while the
     receiver waits, and the same events run. *)
  let run recv =
    let eng = Sim.Engine.create () in
    let mb = Sim.Mailbox.create () in
    let got = ref None and queued = ref (-1) in
    Sim.Engine.spawn eng (fun () -> got := recv mb);
    Sim.Engine.spawn eng (fun () ->
        Sim.Engine.delay 1.0;
        queued := Sim.Engine.pending eng;
        Sim.Mailbox.send mb 7);
    Sim.Engine.run eng;
    (!got, !queued, Sim.Engine.events_processed eng)
  in
  let got, queued, events =
    run (fun mb -> Sim.Mailbox.recv_timeout mb ~timeout:Float.infinity)
  in
  let _, _, recv_events = run (fun mb -> Some (Sim.Mailbox.recv mb)) in
  Alcotest.(check (option int)) "delivered" (Some 7) got;
  check_int "no timer queued" 0 queued;
  check_int "same events as recv" recv_events events

let test_mailbox_timed_out_waiter_skipped () =
  (* A message sent after a waiter timed out must go to the next receiver
     (or the queue), never to the dead waiter. *)
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let late = ref None in
  Sim.Engine.spawn eng (fun () ->
      ignore (Sim.Mailbox.recv_timeout mb ~timeout:1.0));
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 2.0;
      Sim.Mailbox.send mb 42;
      late := Sim.Mailbox.try_recv mb);
  Sim.Engine.run eng;
  Alcotest.(check (option int)) "message queued, not swallowed" (Some 42) !late

let test_mailbox_timeout_then_normal_recv () =
  let eng = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  let got = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      ignore (Sim.Mailbox.recv_timeout mb ~timeout:0.5);
      got := Sim.Mailbox.recv mb);
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 1.0;
      Sim.Mailbox.send mb 8);
  Sim.Engine.run eng;
  check_int "second recv gets it" 8 !got

(* ------------------------------------------------------------------ *)
(* Cpu (processor sharing) *)

let run_jobs_at ~cores jobs =
  (* jobs: (start_time, demand); returns completion times in job order. *)
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores in
  let finish = Array.make (List.length jobs) 0. in
  List.iteri
    (fun i (start, demand) ->
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.delay start;
          Sim.Cpu.consume cpu demand;
          finish.(i) <- Sim.Engine.now ()))
    jobs;
  Sim.Engine.run eng;
  finish

let test_cpu_single_job () =
  let f = run_jobs_at ~cores:1 [ (0., 1.0) ] in
  check_float "solo job" 1.0 f.(0)

let test_cpu_two_jobs_share () =
  let f = run_jobs_at ~cores:1 [ (0., 1.0); (0., 1.0) ] in
  check_float "both at 2" 2.0 f.(0);
  check_float "both at 2" 2.0 f.(1)

let test_cpu_staggered_arrival () =
  (* Job A (2s) alone for 1s, then shares. A has 1s left at t=1, shared ->
     finishes at t=3. B (1s demand) shares from 1: also finishes at 3. *)
  let f = run_jobs_at ~cores:1 [ (0., 2.0); (1., 1.0) ] in
  check_float "A" 3.0 f.(0);
  check_float "B" 3.0 f.(1)

let test_cpu_short_job_departs () =
  (* A: 2s, B: 0.5s. Shared until B served 0.5 at t=1; A then has 1.5s
     left alone -> finishes at 2.5. *)
  let f = run_jobs_at ~cores:1 [ (0., 2.0); (0., 0.5) ] in
  check_float "B departs" 1.0 f.(1);
  check_float "A finishes" 2.5 f.(0)

let test_cpu_multicore_no_contention () =
  let f = run_jobs_at ~cores:2 [ (0., 1.0); (0., 1.0) ] in
  check_float "parallel" 1.0 f.(0);
  check_float "parallel" 1.0 f.(1)

let test_cpu_multicore_three_on_two () =
  (* 3 jobs of 1s on 2 cores: rate 2/3 each; all finish at 1.5. *)
  let f = run_jobs_at ~cores:2 [ (0., 1.0); (0., 1.0); (0., 1.0) ] in
  Array.iter (fun t -> check_float "3 on 2" 1.5 t) f

let test_cpu_speed () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create ~speed:2.0 eng ~cores:1 in
  let t = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Sim.Cpu.consume cpu 1.0;
      t := Sim.Engine.now ());
  Sim.Engine.run eng;
  check_float "double speed halves time" 0.5 !t

let test_cpu_zero_demand () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:1 in
  let t = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      Sim.Cpu.consume cpu 0.;
      t := Sim.Engine.now ());
  Sim.Engine.run eng;
  check_float "immediate" 0.0 !t

let test_cpu_busy_time () =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:1 in
  Sim.Engine.spawn eng (fun () -> Sim.Cpu.consume cpu 1.0);
  Sim.Engine.spawn eng (fun () -> Sim.Cpu.consume cpu 0.5);
  Sim.Engine.run eng;
  check_float_eps 1e-9 "work conserved" 1.5 (Sim.Cpu.busy_time cpu);
  check_int "completed" 2 (Sim.Cpu.completed cpu)

let prop_cpu_work_conservation =
  QCheck.Test.make ~name:"PS cpu conserves work" ~count:(count 50)
    QCheck.(list_of_size Gen.(1 -- 8) (pair (float_bound_exclusive 2.0) (float_bound_exclusive 3.0)))
    (fun jobs ->
      QCheck.assume (jobs <> []);
      let jobs = List.map (fun (s, d) -> (Float.abs s, Float.abs d +. 0.001)) jobs in
      let eng = Sim.Engine.create () in
      let cpu = Sim.Cpu.create eng ~cores:1 in
      List.iter
        (fun (s, d) ->
          Sim.Engine.spawn eng (fun () ->
              Sim.Engine.delay s;
              Sim.Cpu.consume cpu d))
        jobs;
      Sim.Engine.run eng;
      let total = List.fold_left (fun acc (_, d) -> acc +. d) 0. jobs in
      Float.abs (Sim.Cpu.busy_time cpu -. total) < 1e-6
      && Sim.Cpu.completed cpu = List.length jobs)

let prop_cpu_finish_not_before_demand =
  QCheck.Test.make ~name:"PS job never finishes before its solo time"
    ~count:(count 50)
    QCheck.(list_of_size Gen.(1 -- 6) (float_bound_exclusive 2.0))
    (fun demands ->
      QCheck.assume (demands <> []);
      let demands = List.map (fun d -> d +. 0.01) demands in
      let eng = Sim.Engine.create () in
      let cpu = Sim.Cpu.create eng ~cores:1 in
      let ok = ref true in
      List.iter
        (fun d ->
          Sim.Engine.spawn eng (fun () ->
              Sim.Cpu.consume cpu d;
              if Sim.Engine.now () < d -. 1e-9 then ok := false))
        demands;
      Sim.Engine.run eng;
      !ok)

(* ------------------------------------------------------------------ *)
(* Disk and Net *)

let test_disk_cached_vs_uncached () =
  let eng = Sim.Engine.create () in
  let disk = Sim.Disk.create () in
  let t_cached = ref 0. and t_cold = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Sim.Disk.read disk ~bytes:80_000 ~cached:true;
      t_cached := Sim.Engine.now ();
      Sim.Disk.read disk ~bytes:80_000 ~cached:false;
      t_cold := Sim.Engine.now () -. !t_cached);
  Sim.Engine.run eng;
  check_float "cached = bytes/mem_bw" 0.001 !t_cached;
  check_float "cold = seek + bytes/bw" 0.018 !t_cold

let test_disk_serialises () =
  let eng = Sim.Engine.create () in
  let disk = Sim.Disk.create ~seek:0.01 ~bandwidth:1e6 () in
  let finish = ref [] in
  for _ = 1 to 2 do
    Sim.Engine.spawn eng (fun () ->
        Sim.Disk.read disk ~bytes:10_000 ~cached:false;
        finish := Sim.Engine.now () :: !finish)
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "one at a time" [ 0.04; 0.02 ] !finish

let test_net_transfer_time () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~latency:0.001 ~bandwidth:1e6 eng ~n_endpoints:2 in
  let t = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Sim.Net.transfer net ~src:0 ~dst:1 ~bytes:1000;
      t := Sim.Engine.now ());
  Sim.Engine.run eng;
  check_float "tx + latency" 0.002 !t

let test_net_same_endpoint_free () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~latency:0.001 ~bandwidth:1e6 eng ~n_endpoints:2 in
  let t = ref (-1.) in
  Sim.Engine.spawn eng (fun () ->
      Sim.Net.transfer net ~src:0 ~dst:0 ~bytes:1_000_000;
      t := Sim.Engine.now ());
  Sim.Engine.run eng;
  check_float "loopback instantaneous" 0.0 !t

let test_net_send_delivers () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~latency:0.01 ~bandwidth:1e6 eng ~n_endpoints:2 in
  let mb = Sim.Mailbox.create () in
  let got_at = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      ignore (Sim.Mailbox.recv mb);
      got_at := Sim.Engine.now ());
  Sim.Engine.spawn eng (fun () -> Sim.Net.send net ~src:0 ~dst:1 ~bytes:10_000 mb "msg");
  Sim.Engine.run eng;
  check_float "tx(0.01) + latency(0.01)" 0.02 !got_at;
  check_int "accounted" 1 (Sim.Net.messages_sent net);
  check_int "bytes" 10_000 (Sim.Net.bytes_sent net)

let test_net_nic_serialises_sends () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create ~latency:0. ~bandwidth:1e6 eng ~n_endpoints:3 in
  let mb1 = Sim.Mailbox.create () and mb2 = Sim.Mailbox.create () in
  let sent_done = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      Sim.Net.send net ~src:0 ~dst:1 ~bytes:1_000_000 mb1 ();
      Sim.Net.send net ~src:0 ~dst:2 ~bytes:1_000_000 mb2 ();
      sent_done := Sim.Engine.now ());
  Sim.Engine.run eng;
  check_float "two transmissions back to back" 2.0 !sent_done

(* Messages are lost only by a fault plan's link drop, which the plan
   counts. *)
let drop_plan ~seed drop =
  Sim.Fault.create (Sim.Fault.make ~drop ()) ~rng:(Sim.Rng.create seed)
    ~nodes:2

let test_net_drop_all () =
  let eng = Sim.Engine.create () in
  let fault = drop_plan ~seed:1 1.0 in
  let net = Sim.Net.create ~fault eng ~n_endpoints:2 in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.spawn eng (fun () ->
      Sim.Net.send net ~src:0 ~dst:1 ~bytes:10 mb ();
      Sim.Net.send net ~src:0 ~dst:1 ~bytes:10 mb ());
  Sim.Engine.run eng;
  check_int "nothing delivered" 0 (Sim.Mailbox.length mb);
  check_int "two drops" 2 (Sim.Fault.drops fault)

let test_net_zero_drop () =
  let eng = Sim.Engine.create () in
  let fault = drop_plan ~seed:1 0. in
  let net = Sim.Net.create ~fault eng ~n_endpoints:2 in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 20 do
        Sim.Net.send net ~src:0 ~dst:1 ~bytes:10 mb ()
      done);
  Sim.Engine.run eng;
  check_int "all delivered" 20 (Sim.Mailbox.length mb);
  check_int "no drops" 0 (Sim.Fault.drops fault)

let test_net_partial_drop () =
  let eng = Sim.Engine.create () in
  let fault = drop_plan ~seed:5 0.5 in
  let net = Sim.Net.create ~fault eng ~n_endpoints:2 in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.spawn eng (fun () ->
      for _ = 1 to 1000 do
        Sim.Net.send net ~src:0 ~dst:1 ~bytes:10 mb ()
      done);
  Sim.Engine.run eng;
  let delivered = Sim.Mailbox.length mb in
  check_bool "about half" true (delivered > 400 && delivered < 600);
  check_int "accounting consistent" 1000 (delivered + Sim.Fault.drops fault)

let test_net_transfer_never_drops () =
  let eng = Sim.Engine.create () in
  let net =
    Sim.Net.create ~fault:(drop_plan ~seed:1 1.0) eng ~n_endpoints:2
  in
  let completed = ref false in
  Sim.Engine.spawn eng (fun () ->
      Sim.Net.transfer net ~src:0 ~dst:1 ~bytes:1000;
      completed := true);
  Sim.Engine.run eng;
  check_bool "stream transfer reliable" true !completed

let test_net_endpoint_range () =
  let eng = Sim.Engine.create () in
  let net = Sim.Net.create eng ~n_endpoints:2 in
  let raised = ref false in
  Sim.Engine.spawn eng (fun () ->
      try Sim.Net.transfer net ~src:0 ~dst:5 ~bytes:1
      with Invalid_argument _ -> raised := true);
  Sim.Engine.run eng;
  check_bool "range checked" true !raised

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "drains in sorted order" `Quick test_pqueue_order;
          Alcotest.test_case "empty behaviour" `Quick test_pqueue_empty;
          Alcotest.test_case "peek does not remove" `Quick test_pqueue_peek_stable;
        ] );
      qsuite "pqueue-props" [ prop_pqueue_sorts ];
      ( "rng",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_invalid;
        ] );
      qsuite "rng-props" [ prop_rng_float_range ];
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "exponential validation" `Quick test_dist_exponential_invalid;
          Alcotest.test_case "lognormal mean/cv" `Quick test_dist_lognormal_mean_cv;
          Alcotest.test_case "lognormal cv=0 degenerate" `Quick test_dist_lognormal_cv_zero;
          Alcotest.test_case "normal mean" `Quick test_dist_normal_mean;
          Alcotest.test_case "zipf in range" `Quick test_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf s=0 uniform" `Quick test_zipf_uniform_when_s0;
          Alcotest.test_case "discrete weights" `Quick test_discrete_weights;
          Alcotest.test_case "discrete validation" `Quick test_discrete_invalid;
        ] );
      ( "engine",
        [
          Alcotest.test_case "events fire in time order" `Quick test_engine_event_order;
          Alcotest.test_case "same-time events FIFO" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "clock advances to event time" `Quick test_engine_clock_advances;
          Alcotest.test_case "past scheduling rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "timer cleared before due" `Quick test_timer_cleared;
          Alcotest.test_case "timer re-arm takes a fresh seq" `Quick
            test_timer_rearm_fresh_seq;
          Alcotest.test_case "run ~until stops before a timer" `Quick
            test_timer_run_until;
          Alcotest.test_case "run ~until pauses and resumes" `Quick test_engine_run_until;
          Alcotest.test_case "delay advances process time" `Quick test_engine_delay_and_now;
          Alcotest.test_case "spawn_child runs after parent" `Quick test_engine_spawn_child;
          Alcotest.test_case "yield interleaves" `Quick test_engine_yield_interleaves;
          Alcotest.test_case "process ops outside process raise" `Quick test_engine_not_in_process;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "deadlock detection" `Quick test_engine_deadlock_detection;
          Alcotest.test_case "suspended count" `Quick test_engine_suspended_count;
          Alcotest.test_case "bit-determinism" `Quick test_engine_determinism;
        ] );
      (* The write side alone, as the NICs and the disk arm take it. *)
      ( "mutex",
        [
          Alcotest.test_case "unlock unlocked raises" `Quick
            test_rwlock_wr_unlock_unheld;
          Alcotest.test_case "with_lock releases on exception" `Quick
            test_rwlock_with_wr_exn_safe;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick test_rwlock_writer_excludes;
          Alcotest.test_case "FIFO fairness" `Quick test_rwlock_fifo_no_starvation;
          Alcotest.test_case "acquisition counters" `Quick test_rwlock_counters;
        ] );
      ( "latch",
        [
          Alcotest.test_case "releases at zero" `Quick test_latch;
          Alcotest.test_case "zero count immediate" `Quick test_latch_zero_immediate;
          Alcotest.test_case "extra arrive raises" `Quick test_latch_extra_arrive;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "FIFO messages" `Quick test_mailbox_fifo;
          Alcotest.test_case "recv blocks until send" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "receivers served FIFO" `Quick test_mailbox_receivers_fifo;
          Alcotest.test_case "try_recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "recv_timeout expires" `Quick
            test_mailbox_recv_timeout_expires;
          Alcotest.test_case "recv_timeout delivers in time" `Quick
            test_mailbox_recv_timeout_delivers;
          Alcotest.test_case "recv_timeout immediate" `Quick
            test_mailbox_recv_timeout_immediate;
          Alcotest.test_case "recv_timeout infinity is recv" `Quick
            test_mailbox_recv_timeout_infinite;
          Alcotest.test_case "timed-out waiter skipped" `Quick
            test_mailbox_timed_out_waiter_skipped;
          Alcotest.test_case "timeout then normal recv" `Quick
            test_mailbox_timeout_then_normal_recv;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "single job runs at speed" `Quick test_cpu_single_job;
          Alcotest.test_case "two jobs share equally" `Quick test_cpu_two_jobs_share;
          Alcotest.test_case "staggered arrivals" `Quick test_cpu_staggered_arrival;
          Alcotest.test_case "short job departs, rate recovers" `Quick test_cpu_short_job_departs;
          Alcotest.test_case "multicore no contention" `Quick test_cpu_multicore_no_contention;
          Alcotest.test_case "three jobs on two cores" `Quick test_cpu_multicore_three_on_two;
          Alcotest.test_case "speed scales" `Quick test_cpu_speed;
          Alcotest.test_case "zero demand yields" `Quick test_cpu_zero_demand;
          Alcotest.test_case "busy time accounting" `Quick test_cpu_busy_time;
        ] );
      qsuite "cpu-props" [ prop_cpu_work_conservation; prop_cpu_finish_not_before_demand ];
      ( "disk",
        [
          Alcotest.test_case "cached vs uncached cost" `Quick test_disk_cached_vs_uncached;
          Alcotest.test_case "uncached reads serialise" `Quick test_disk_serialises;
        ] );
      ( "net",
        [
          Alcotest.test_case "transfer time" `Quick test_net_transfer_time;
          Alcotest.test_case "loopback free" `Quick test_net_same_endpoint_free;
          Alcotest.test_case "send delivers after tx+latency" `Quick test_net_send_delivers;
          Alcotest.test_case "NIC serialises sends" `Quick test_net_nic_serialises_sends;
          Alcotest.test_case "endpoint range checked" `Quick test_net_endpoint_range;
          Alcotest.test_case "loss=1 drops everything" `Quick
            test_net_drop_all;
          Alcotest.test_case "loss=0 lossless" `Quick test_net_zero_drop;
          Alcotest.test_case "partial loss" `Quick test_net_partial_drop;
          Alcotest.test_case "transfers never drop" `Quick
            test_net_transfer_never_drops;
        ] );
    ]
