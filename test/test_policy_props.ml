(* Property tests for the replacement policies and the re-keyable
   eviction heap in Cache.Store.

   The heart of the suite is a model-based oracle: a naive full-scan
   shadow of the store that tracks, per live key, the access statistics
   and the priority-at-last-touch, and picks victims by a full scan for
   the minimum (priority, touch-version) pair — exactly the contract the
   heap is supposed to implement in O(log n). Replaying random sequences
   of inserts, lookups, removals and clears through both and comparing
   every eviction catches bookkeeping bugs (an element not re-keyed on a
   touch, or left in the heap by a remove, a clear or a re-insert of the
   same key) that example tests miss. *)

let count = Qcheck_count.or_default 200

(* ------------------------------------------------------------------ *)
(* Op sequences over a small key space *)

type op = Insert of int * int * float | Lookup of int | Remove of int | Clear

let key_of i = Printf.sprintf "GET /cgi-bin/s%d" i

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 12,
          map3
            (fun k size exec -> Insert (k, size, exec))
            (int_range 0 7) (int_range 1 500)
            (oneofl [ 0.001; 0.01; 0.05; 0.2; 1.0 ]) );
        (8, map (fun k -> Lookup k) (int_range 0 7));
        (3, map (fun k -> Remove k) (int_range 0 7));
        (1, return Clear);
      ])

let ops_arbitrary =
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Insert (k, s, e) -> Printf.sprintf "I(%d,%d,%g)" k s e
           | Lookup k -> Printf.sprintf "L(%d)" k
           | Remove k -> Printf.sprintf "R(%d)" k
           | Clear -> "C")
         ops)
  in
  QCheck.make ~print QCheck.Gen.(list_size (1 -- 120) op_gen)

(* ------------------------------------------------------------------ *)
(* The naive shadow model *)

type mslot = {
  m_meta : Cache.Meta.t;
  mutable m_last : float;
  mutable m_hits : int;
  m_inserted : float;
  mutable m_ver : int;  (* touch number at last touch *)
  mutable m_pr : float;  (* priority at last touch *)
}

type model = {
  m_cap : int;
  m_pol : Cache.Policy.t;
  m_tbl : (string, mslot) Hashtbl.t;
  mutable m_clock : float;  (* mirrors the store's gdsf aging clock *)
  mutable m_vgen : int;
}

let model_create ~capacity ~policy =
  { m_cap = capacity; m_pol = policy; m_tbl = Hashtbl.create 16;
    m_clock = 0.; m_vgen = 0 }

(* The priority [Cache.Policy.priority] stores for these inputs. *)
let priority p ~clock ~meta ~last_access ~hits ~inserted =
  let cell = { Sim.Pqueue.time = Float.nan } in
  Cache.Policy.priority p cell ~clock ~meta ~last_access ~hits ~inserted;
  cell.time

let m_priority m ~meta ~last ~hits ~inserted =
  priority m.m_pol ~clock:m.m_clock ~meta ~last_access:last ~hits ~inserted

(* Full-scan victim: minimum (priority-at-last-touch, touch-version) —
   the spec the store's heap must match, ties breaking towards the least
   recently touched slot. *)
let model_victim m =
  Hashtbl.fold
    (fun _ slot best ->
      match best with
      | None -> Some slot
      | Some b ->
          if
            slot.m_pr < b.m_pr
            || (slot.m_pr = b.m_pr && slot.m_ver < b.m_ver)
          then Some slot
          else best)
    m.m_tbl None

let model_remove m key =
  if Hashtbl.mem m.m_tbl key then begin
    Hashtbl.remove m.m_tbl key;
    m.m_vgen <- m.m_vgen + 1 (* only the order of touch numbers matters *)
  end

(* Returns the predicted eviction sequence (victim priorities included,
   for the GDSF monotonicity property). *)
let model_insert m ~now meta =
  let key = meta.Cache.Meta.key in
  model_remove m key;
  let evicted = ref [] in
  while Hashtbl.length m.m_tbl >= m.m_cap do
    match model_victim m with
    | None -> assert false
    | Some v ->
        if Cache.Policy.uses_clock m.m_pol then m.m_clock <- v.m_pr;
        evicted := (v.m_meta.Cache.Meta.key, v.m_pr) :: !evicted;
        model_remove m v.m_meta.Cache.Meta.key
  done;
  m.m_vgen <- m.m_vgen + 1;
  let slot =
    {
      m_meta = meta;
      m_last = now;
      m_hits = 0;
      m_inserted = now;
      m_ver = m.m_vgen;
      m_pr = 0.;
    }
  in
  slot.m_pr <- m_priority m ~meta ~last:now ~hits:0 ~inserted:now;
  Hashtbl.add m.m_tbl key slot;
  List.rev !evicted

let model_lookup m ~now key =
  match Hashtbl.find_opt m.m_tbl key with
  | None -> false
  | Some slot ->
      slot.m_last <- now;
      slot.m_hits <- slot.m_hits + 1;
      m.m_vgen <- m.m_vgen + 1;
      slot.m_ver <- m.m_vgen;
      slot.m_pr <-
        m_priority m ~meta:slot.m_meta ~last:slot.m_last ~hits:slot.m_hits
          ~inserted:slot.m_inserted;
      true

let model_keys m =
  Hashtbl.fold (fun k _ acc -> k :: acc) m.m_tbl []
  |> List.sort String.compare

let model_clear m =
  let n = Hashtbl.length m.m_tbl in
  List.iter (model_remove m) (model_keys m);
  n

(* ------------------------------------------------------------------ *)
(* Replay harness *)

let meta_of ~key ~size ~exec =
  Cache.Meta.make ~key ~owner:0 ~size ~exec_time:exec ~created:0.
    ~expires:None

(* Replay [ops] through a real store and the shadow model in lock-step;
   returns the victim-priority trace and raises a test failure on any
   divergence. Entries never expire here — expiry interacts with the
   heap only via delete_slot, which remove/re-insert already covers. *)
let replay ~policy ~capacity ops =
  let clock = ref 0. in
  let store =
    Cache.Store.create ~capacity ~policy
      ~clock:(fun () -> !clock)
      ~rng:(Sim.Rng.create 4242) ()
  in
  let m = model_create ~capacity ~policy in
  let victim_prs = ref [] in
  List.iteri
    (fun i op ->
      clock := float_of_int (i + 1);
      match op with
      | Insert (k, size, exec) ->
          let key = key_of k in
          let meta = meta_of ~key ~size ~exec in
          let evicted =
            List.map
              (fun (v : Cache.Meta.t) -> v.Cache.Meta.key)
              (Cache.Store.insert store meta (String.make 4 'x'))
          in
          let predicted = model_insert m ~now:!clock meta in
          victim_prs := List.rev_append (List.map snd predicted) !victim_prs;
          let predicted_keys = List.map fst predicted in
          if evicted <> predicted_keys then
            QCheck.Test.fail_reportf
              "op %d: store evicted [%s], oracle predicted [%s]" i
              (String.concat "; " evicted)
              (String.concat "; " predicted_keys)
      | Lookup k ->
          let key = key_of k in
          let store_hit = Cache.Store.lookup store key <> None in
          let model_hit = model_lookup m ~now:!clock key in
          if store_hit <> model_hit then
            QCheck.Test.fail_reportf "op %d: lookup %s hit=%b, oracle %b" i
              key store_hit model_hit
      | Remove k ->
          let key = key_of k in
          let store_had = Cache.Store.remove store key in
          let model_had = Hashtbl.mem m.m_tbl key in
          model_remove m key;
          if store_had <> model_had then
            QCheck.Test.fail_reportf "op %d: remove %s found=%b, oracle %b" i
              key store_had model_had
      | Clear ->
          let store_n = Cache.Store.clear store in
          let model_n = model_clear m in
          if store_n <> model_n then
            QCheck.Test.fail_reportf "op %d: clear dropped %d, oracle %d" i
              store_n model_n)
    ops;
  if Cache.Store.keys store <> model_keys m then
    QCheck.Test.fail_reportf "final keys diverge: store [%s], oracle [%s]"
      (String.concat "; " (Cache.Store.keys store))
      (String.concat "; " (model_keys m));
  List.rev !victim_prs

let heap_policies =
  [
    Cache.Policy.Lru;
    Cache.Policy.Fifo;
    Cache.Policy.Lfu;
    Cache.Policy.Largest_size;
    Cache.Policy.Cheapest_recompute;
    Cache.Policy.Gdsf;
  ]

let oracle_tests =
  List.map
    (fun policy ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "eviction order matches full-scan oracle (%s)"
             (Cache.Policy.to_string policy))
        ~count
        QCheck.(pair (int_range 1 6) ops_arbitrary)
        (fun (capacity, ops) ->
          ignore (replay ~policy ~capacity ops : float list);
          true))
    heap_policies

(* GDSF aging: the clock is set to each victim's priority, and every
   pushed priority exceeds the clock, so the evicted-priority sequence
   must be nondecreasing — the "inflation" that lets old popular entries
   eventually age out. *)
let gdsf_monotone =
  QCheck.Test.make ~name:"gdsf evicted-priority sequence is nondecreasing"
    ~count
    QCheck.(pair (int_range 1 6) ops_arbitrary)
    (fun (capacity, ops) ->
      let prs = replay ~policy:Cache.Policy.Gdsf ~capacity ops in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | [ _ ] | [] -> true
      in
      if not (nondecreasing prs) then
        QCheck.Test.fail_reportf "victim priorities decreased: [%s]"
          (String.concat "; " (List.map (Printf.sprintf "%g") prs));
      true)

(* Random replacement has no eviction-order contract; check the bounds
   and membership invariants plus determinism under a fixed rng seed. *)
let random_invariants =
  QCheck.Test.make ~name:"random policy: capacity bound and determinism"
    ~count
    QCheck.(pair (int_range 1 6) ops_arbitrary)
    (fun (capacity, ops) ->
      let run () =
        let clock = ref 0. in
        let store =
          Cache.Store.create ~capacity ~policy:Cache.Policy.Random
            ~clock:(fun () -> !clock)
            ~rng:(Sim.Rng.create 77) ()
        in
        let evictions = ref [] in
        List.iteri
          (fun i op ->
            clock := float_of_int (i + 1);
            (match op with
            | Insert (k, size, exec) ->
                let meta = meta_of ~key:(key_of k) ~size ~exec in
                let ev = Cache.Store.insert store meta "body" in
                evictions :=
                  List.rev_append
                    (List.map (fun (m : Cache.Meta.t) -> m.Cache.Meta.key) ev)
                    !evictions;
                if not (Cache.Store.mem store (key_of k)) then
                  QCheck.Test.fail_reportf "op %d: inserted key absent" i
            | Lookup k -> ignore (Cache.Store.lookup store (key_of k))
            | Remove k ->
                ignore (Cache.Store.remove store (key_of k) : bool);
                if Cache.Store.mem store (key_of k) then
                  QCheck.Test.fail_reportf "op %d: removed key present" i
            | Clear ->
                ignore (Cache.Store.clear store : int);
                if Cache.Store.length store <> 0 then
                  QCheck.Test.fail_reportf "op %d: clear left entries" i);
            if Cache.Store.length store > capacity then
              QCheck.Test.fail_reportf "op %d: length %d > capacity %d" i
                (Cache.Store.length store) capacity)
          ops;
        (List.rev !evictions, Cache.Store.keys store)
      in
      run () = run ())

(* Policy.priority is a pure function of its inputs — the property the
   sim's determinism guarantees lean on — and each policy's name leads
   back to it alone, as [--policy] parses it. *)
let priority_deterministic =
  QCheck.Test.make ~name:"priority is deterministic and strings round-trip"
    ~count
    QCheck.(
      quad (int_range 1 500)
        (oneofl [ 0.001; 0.01; 0.05; 0.2; 1.0 ])
        (int_range 0 50) (float_bound_exclusive 100.))
    (fun (size, exec, hits, clock) ->
      let meta = meta_of ~key:"GET /cgi-bin/p" ~size ~exec in
      let priority p =
        priority p ~clock ~meta ~last_access:clock ~hits
          ~inserted:(clock /. 2.)
      in
      List.for_all
        (fun p ->
          priority p = priority p
          && List.filter
               (fun q -> Cache.Policy.to_string q = Cache.Policy.to_string p)
               Cache.Policy.all
             = [ p ])
        Cache.Policy.all)

(* ------------------------------------------------------------------ *)
(* Heap re-keying regressions (deterministic examples) *)

(* A touch re-keys the touched entry, so its insert-time priority must
   not get it evicted: after insert a, insert b, lookup a, the LRU victim
   is b. *)
let test_lazy_heap_touch () =
  let clock = ref 0. in
  let store =
    Cache.Store.create ~capacity:2 ~policy:Cache.Policy.Lru
      ~clock:(fun () -> !clock)
      ()
  in
  let ins key =
    ignore (Cache.Store.insert store (meta_of ~key ~size:1 ~exec:0.1) "b")
  in
  clock := 1.;
  ins "a";
  clock := 2.;
  ins "b";
  clock := 3.;
  (match Cache.Store.lookup store "a" with
  | Some _ -> ()
  | None -> Alcotest.fail "a should hit");
  clock := 4.;
  let evicted =
    Cache.Store.insert store (meta_of ~key:"c" ~size:1 ~exec:0.1) "b"
  in
  Alcotest.(check (list string))
    "victim is b, not a at its insert-time priority"
    [ "b" ]
    (List.map (fun (m : Cache.Meta.t) -> m.Cache.Meta.key) evicted)

(* Remove/re-insert of the same key must drop the first insert's place
   in the heap: the re-inserted key is now the newest, so the other key
   is the victim. *)
let test_lazy_heap_reinsert () =
  let clock = ref 0. in
  let store =
    Cache.Store.create ~capacity:2 ~policy:Cache.Policy.Fifo
      ~clock:(fun () -> !clock)
      ()
  in
  let ins key =
    ignore (Cache.Store.insert store (meta_of ~key ~size:1 ~exec:0.1) "b")
  in
  clock := 1.;
  ins "a";
  clock := 2.;
  ins "b";
  clock := 3.;
  ins "a" (* replaces: a's FIFO position is now t=3, after b *);
  clock := 4.;
  let evicted =
    Cache.Store.insert store (meta_of ~key:"c" ~size:1 ~exec:0.1) "b"
  in
  Alcotest.(check (list string))
    "victim is b: a's original position died with the replace"
    [ "b" ]
    (List.map (fun (m : Cache.Meta.t) -> m.Cache.Meta.key) evicted)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "policy_props"
    [
      qsuite "oracle" oracle_tests;
      qsuite "gdsf" [ gdsf_monotone ];
      qsuite "random" [ random_invariants ];
      qsuite "priority" [ priority_deterministic ];
      ( "lazy-heap",
        [
          Alcotest.test_case "touch invalidates" `Quick test_lazy_heap_touch;
          Alcotest.test_case "reinsert invalidates" `Quick
            test_lazy_heap_reinsert;
        ] );
    ]
