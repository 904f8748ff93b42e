(* Tests for the cache library: metas, policies, bounded store, directory. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let meta ?(owner = 0) ?(size = 100) ?(exec = 1.0) ?(created = 0.) ?expires key =
  Cache.Meta.make ~key ~owner ~size ~exec_time:exec ~created ~expires

(* A store driven by a hand-cranked clock. *)
let make_store ?(capacity = 3) ?(policy = Cache.Policy.Lru) () =
  let clock = ref 0. in
  let store =
    Cache.Store.create ~capacity ~policy
      ~clock:(fun () -> !clock)
      ~rng:(Sim.Rng.create 99) ()
  in
  (store, clock)

(* ------------------------------------------------------------------ *)
(* Meta *)

let test_meta_expiry () =
  let m = meta ~expires:10. "k" in
  check_bool "before" false (Cache.Meta.expired m ~now:9.9);
  check_bool "at" true (Cache.Meta.expired m ~now:10.);
  check_bool "after" true (Cache.Meta.expired m ~now:11.)

let test_meta_no_expiry () =
  let m = meta "k" in
  check_bool "never" false (Cache.Meta.expired m ~now:1e12)

let test_meta_validation () =
  Alcotest.check_raises "neg size" (Invalid_argument "Meta.make: negative size")
    (fun () -> ignore (meta ~size:(-1) "k"));
  Alcotest.check_raises "neg exec"
    (Invalid_argument "Meta.make: negative exec_time") (fun () ->
      ignore (meta ~exec:(-1.) "k"))

(* ------------------------------------------------------------------ *)
(* Policy *)

let access ~last ~hits ~ins =
  { Cache.Policy.last_access = last; hits; inserted = ins }

let test_policy_priorities () =
  let m = meta ~size:200 ~exec:3.0 "k" in
  let a = access ~last:5. ~hits:7 ~ins:1. in
  let pri p = Cache.Policy.priority p ~clock:0. ~meta:m ~access:a in
  check_float "lru = last access" 5. (pri Cache.Policy.Lru);
  check_float "fifo = insert time" 1. (pri Cache.Policy.Fifo);
  check_float "lfu = hits" 7. (pri Cache.Policy.Lfu);
  check_float "size = -bytes" (-200.) (pri Cache.Policy.Largest_size);
  check_float "exec-time" 3. (pri Cache.Policy.Cheapest_recompute)

let test_policy_gdsf_clock () =
  let m = meta ~size:100 ~exec:2.0 "k" in
  let a = access ~last:0. ~hits:0 ~ins:0. in
  let p0 = Cache.Policy.priority Cache.Policy.Gdsf ~clock:0. ~meta:m ~access:a in
  let p1 = Cache.Policy.priority Cache.Policy.Gdsf ~clock:5. ~meta:m ~access:a in
  check_float "clock shifts priority" 5. (p1 -. p0);
  check_bool "uses clock" true (Cache.Policy.uses_clock Cache.Policy.Gdsf);
  check_bool "lru does not" false (Cache.Policy.uses_clock Cache.Policy.Lru)

let test_policy_gdsf_prefers_valuable () =
  (* Higher exec time / smaller size => higher priority (evicted later). *)
  let a = access ~last:0. ~hits:0 ~ins:0. in
  let cheap = meta ~size:1000 ~exec:0.1 "c" in
  let dear = meta ~size:100 ~exec:5.0 "d" in
  let p m = Cache.Policy.priority Cache.Policy.Gdsf ~clock:0. ~meta:m ~access:a in
  check_bool "valuable survives" true (p dear > p cheap)

(* [--policy] parses the names [to_string] gives [all]: each must lead
   back to its own policy alone. *)
let test_policy_string_roundtrip () =
  List.iter
    (fun p ->
      let name = Cache.Policy.to_string p in
      check_bool name true
        (List.filter (fun q -> Cache.Policy.to_string q = name) Cache.Policy.all
        = [ p ]))
    Cache.Policy.all

(* ------------------------------------------------------------------ *)
(* Store: basics *)

let test_store_insert_lookup () =
  let store, _clock = make_store () in
  ignore (Cache.Store.insert store (meta "a") "body-a");
  (match Cache.Store.lookup store "a" with
  | Some e ->
      Alcotest.(check string) "body" "body-a"
        (Http.Body.to_string e.Cache.Store.body);
      Alcotest.(check string) "key" "a" e.Cache.Store.meta.Cache.Meta.key
  | None -> Alcotest.fail "expected hit");
  check_bool "miss" true (Cache.Store.lookup store "b" = None);
  let st = Cache.Store.stats store in
  check_int "hits" 1 st.Cache.Stats.hits;
  check_int "misses" 1 st.Cache.Stats.misses

(* A cached CGI result is a description (script, key, size), not its
   bytes: 2,000 results of 512 KB retain exactly what 2,000 of 8 KB do.
   Rendering on insert would make the second store 64 times larger. *)
let test_store_deferred_retention () =
  let script =
    Cgi.Script.make ~name:"/cgi-bin/q" (Cgi.Cost.make (Cgi.Cost.Fixed 1.))
  in
  let retained bytes =
    let store, _ = make_store ~capacity:2_000 () in
    for i = 0 to 1_999 do
      let key = Printf.sprintf "GET /cgi-bin/q?i=%04d" i in
      let body = Cgi.Script.body script ~key ~bytes in
      ignore
        (Cache.Store.insert_body store
           (meta ~size:(Http.Body.length body) key)
           body
          : Cache.Meta.t list)
    done;
    check_int "all held" 2_000 (Cache.Store.length store);
    Obj.reachable_words (Obj.repr store)
  in
  let small = retained 8_192 and large = retained 524_288 in
  check_int "words per entry, 8 KB vs 512 KB" (small / 2_000) (large / 2_000);
  check_int "same total" small large;
  check_bool "below one rendered 8 KB body per entry" true
    (small / 2_000 < 8_192 / (Sys.word_size / 8))

let test_store_replace_same_key () =
  let store, _ = make_store () in
  ignore (Cache.Store.insert store (meta "a") "v1");
  ignore (Cache.Store.insert store (meta "a") "v2");
  check_int "one entry" 1 (Cache.Store.length store);
  match Cache.Store.lookup store "a" with
  | Some e ->
      Alcotest.(check string) "latest" "v2" (Http.Body.to_string e.Cache.Store.body)
  | None -> Alcotest.fail "hit expected"

let test_store_capacity_enforced () =
  let store, _ = make_store ~capacity:2 () in
  ignore (Cache.Store.insert store (meta "a") "");
  ignore (Cache.Store.insert store (meta "b") "");
  let evicted = Cache.Store.insert store (meta "c") "" in
  check_int "capacity" 2 (Cache.Store.length store);
  check_int "one eviction" 1 (List.length evicted)

let test_store_lru_victim () =
  let store, clock = make_store ~capacity:2 ~policy:Cache.Policy.Lru () in
  ignore (Cache.Store.insert store (meta "a") "");
  clock := 1.;
  ignore (Cache.Store.insert store (meta "b") "");
  clock := 2.;
  ignore (Cache.Store.lookup store "a") |> ignore;
  clock := 3.;
  let evicted = Cache.Store.insert store (meta "c") "" in
  Alcotest.(check (list string)) "b evicted (a was touched)" [ "b" ]
    (List.map (fun m -> m.Cache.Meta.key) evicted);
  check_bool "a survives" true (Cache.Store.mem store "a")

let test_store_fifo_victim () =
  let store, clock = make_store ~capacity:2 ~policy:Cache.Policy.Fifo () in
  ignore (Cache.Store.insert store (meta "a") "");
  clock := 1.;
  ignore (Cache.Store.insert store (meta "b") "");
  clock := 2.;
  ignore (Cache.Store.lookup store "a") |> ignore;
  (* touching does not save "a" under FIFO *)
  let evicted = Cache.Store.insert store (meta "c") "" in
  Alcotest.(check (list string)) "a evicted" [ "a" ]
    (List.map (fun m -> m.Cache.Meta.key) evicted)

let test_store_lfu_victim () =
  let store, _ = make_store ~capacity:2 ~policy:Cache.Policy.Lfu () in
  ignore (Cache.Store.insert store (meta "a") "");
  ignore (Cache.Store.insert store (meta "b") "");
  ignore (Cache.Store.lookup store "a");
  ignore (Cache.Store.lookup store "a");
  ignore (Cache.Store.lookup store "b");
  let evicted = Cache.Store.insert store (meta "c") "" in
  Alcotest.(check (list string)) "b evicted (fewer hits)" [ "b" ]
    (List.map (fun m -> m.Cache.Meta.key) evicted)

let test_store_size_victim () =
  let store, _ = make_store ~capacity:2 ~policy:Cache.Policy.Largest_size () in
  ignore (Cache.Store.insert store (meta ~size:10 "small") "");
  ignore (Cache.Store.insert store (meta ~size:9999 "big") "");
  let evicted = Cache.Store.insert store (meta ~size:50 "mid") "" in
  Alcotest.(check (list string)) "largest evicted" [ "big" ]
    (List.map (fun m -> m.Cache.Meta.key) evicted)

let test_store_exec_victim () =
  let store, _ =
    make_store ~capacity:2 ~policy:Cache.Policy.Cheapest_recompute ()
  in
  ignore (Cache.Store.insert store (meta ~exec:0.2 "cheap") "");
  ignore (Cache.Store.insert store (meta ~exec:9.0 "dear") "");
  let evicted = Cache.Store.insert store (meta ~exec:1.0 "mid") "" in
  Alcotest.(check (list string)) "cheapest-to-recompute evicted" [ "cheap" ]
    (List.map (fun m -> m.Cache.Meta.key) evicted)

let test_store_random_policy_works () =
  let store, _ = make_store ~capacity:5 ~policy:Cache.Policy.Random () in
  for i = 1 to 50 do
    ignore (Cache.Store.insert store (meta (Printf.sprintf "k%d" i)) "")
  done;
  check_int "bounded" 5 (Cache.Store.length store);
  check_int "evictions" 45 (Cache.Store.stats store).Cache.Stats.evictions

let test_store_random_requires_rng () =
  Alcotest.check_raises "rng required"
    (Invalid_argument "Store.create: Random policy needs an rng") (fun () ->
      ignore
        (Cache.Store.create ~capacity:1 ~policy:Cache.Policy.Random
           ~clock:(fun () -> 0.)
           ()))

let test_store_gdsf_aging () =
  (* GDSF with aging must eventually evict a once-hot entry that stops
     being referenced, rather than starving newcomers forever. *)
  let store, clock = make_store ~capacity:2 ~policy:Cache.Policy.Gdsf () in
  ignore (Cache.Store.insert store (meta ~exec:5.0 ~size:10 "hot") "");
  for _ = 1 to 20 do
    ignore (Cache.Store.lookup store "hot")
  done;
  ignore (Cache.Store.insert store (meta ~exec:1.0 ~size:10 "b") "");
  (* Keep inserting fresh entries; the aging clock rises with each eviction
     until it passes the stale hot entry's priority. *)
  clock := 1.;
  let hot_evicted = ref false in
  for i = 0 to 200 do
    let evicted =
      Cache.Store.insert store (meta ~exec:1.0 ~size:10 (Printf.sprintf "n%d" i)) ""
    in
    if List.exists (fun m -> m.Cache.Meta.key = "hot") evicted then
      hot_evicted := true
  done;
  check_bool "stale hot entry eventually ages out" true !hot_evicted

let test_store_remove () =
  let store, _ = make_store () in
  ignore (Cache.Store.insert store (meta "a") "");
  check_bool "removed" true (Cache.Store.remove store "a");
  check_bool "absent" false (Cache.Store.remove store "a");
  check_int "empty" 0 (Cache.Store.length store)

let test_store_ttl_expiry_on_lookup () =
  let store, clock = make_store () in
  ignore (Cache.Store.insert store (meta ~expires:10. "a") "");
  clock := 5.;
  check_bool "live" true (Cache.Store.lookup store "a" <> None);
  clock := 10.;
  check_bool "expired" true (Cache.Store.lookup store "a" = None);
  check_int "expiration counted" 1 (Cache.Store.stats store).Cache.Stats.expirations;
  check_int "expired entry dropped" 0 (Cache.Store.length store)

let test_store_purge_expired () =
  let store, clock = make_store ~capacity:10 () in
  ignore (Cache.Store.insert store (meta ~expires:1. "x1") "");
  ignore (Cache.Store.insert store (meta ~expires:2. "x2") "");
  ignore (Cache.Store.insert store (meta "keep") "");
  clock := 1.5;
  let purged = Cache.Store.purge_expired store in
  Alcotest.(check (list string)) "only x1" [ "x1" ]
    (List.map (fun m -> m.Cache.Meta.key) purged);
  check_int "two left" 2 (Cache.Store.length store);
  clock := 5.;
  check_int "second purge" 1 (List.length (Cache.Store.purge_expired store));
  check_bool "keep survives" true (Cache.Store.mem store "keep")

(* The store reads its clock once per purge and once more for every slot
   a scan visits, so counting clock reads counts the slots a purge
   visited. *)
let counting_store ~capacity =
  let clock = ref 0. and reads = ref 0 in
  let store =
    Cache.Store.create ~capacity ~policy:Cache.Policy.Lru
      ~clock:(fun () ->
        incr reads;
        !clock)
      ()
  in
  let purge () =
    reads := 0;
    let keys = List.map (fun m -> m.Cache.Meta.key) (Cache.Store.purge_expired store) in
    (keys, !reads)
  in
  (store, clock, purge)

let test_store_purge_ttl_free () =
  let store, clock, purge = counting_store ~capacity:10 in
  List.iter (fun k -> ignore (Cache.Store.insert store (meta k) "")) [ "a"; "b"; "c" ];
  clock := 1e9;
  Alcotest.(check (pair (list string) int)) "nothing, no slot visited" ([], 1) (purge ());
  check_int "all kept" 3 (Cache.Store.length store)

let test_store_purge_stale_bound () =
  let store, clock, purge = counting_store ~capacity:10 in
  ignore (Cache.Store.insert store (meta ~expires:1. "early") "");
  ignore (Cache.Store.insert store (meta ~expires:5. "late") "");
  ignore (Cache.Store.insert store (meta "forever") "");
  check_bool "removed" true (Cache.Store.remove store "early");
  clock := 2.;
  (* the bound still says 1: one rescan finds nothing and tightens it *)
  Alcotest.(check (pair (list string) int)) "rescan" ([], 3) (purge ());
  Alcotest.(check (pair (list string) int)) "tightened to 5" ([], 1) (purge ());
  clock := 5.;
  Alcotest.(check (pair (list string) int)) "due at 5" ([ "late" ], 3) (purge ());
  Alcotest.(check (pair (list string) int)) "TTL-free again" ([], 1) (purge ());
  Alcotest.(check (list string)) "survivor" [ "forever" ] (Cache.Store.keys store)

let test_store_peek_no_stats () =
  let store, _ = make_store () in
  ignore (Cache.Store.insert store (meta "a") "");
  ignore (Cache.Store.peek store "a");
  ignore (Cache.Store.peek store "missing");
  let st = Cache.Store.stats store in
  check_int "no hits" 0 st.Cache.Stats.hits;
  check_int "no misses" 0 st.Cache.Stats.misses

let test_store_peek_does_not_refresh_lru () =
  let store, clock = make_store ~capacity:2 ~policy:Cache.Policy.Lru () in
  ignore (Cache.Store.insert store (meta "a") "");
  clock := 1.;
  ignore (Cache.Store.insert store (meta "b") "");
  clock := 2.;
  ignore (Cache.Store.peek store "a");
  let evicted = Cache.Store.insert store (meta "c") "" in
  Alcotest.(check (list string)) "peek does not protect a" [ "a" ]
    (List.map (fun m -> m.Cache.Meta.key) evicted)

let test_store_keys_sorted () =
  let store, _ = make_store () in
  ignore (Cache.Store.insert store (meta "b") "");
  ignore (Cache.Store.insert store (meta "a") "");
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Cache.Store.keys store)

(* Model-based check: drive the real store and a naive reference
   implementation with the same operation sequence and compare behaviour.
   The reference keeps an association list ordered by the policy's notion
   of victim priority, recomputed from first principles on every op. *)
module Model = struct
  type entry = { key : string; mutable last : float; mutable hits : int; ins : float }

  type t = { cap : int; mutable entries : entry list }

  let create cap = { cap; entries = [] }
  let find t key = List.find_opt (fun e -> e.key = key) t.entries

  let lookup t ~now key =
    match find t key with
    | Some e ->
        e.last <- now;
        e.hits <- e.hits + 1;
        true
    | None -> false

  let victim t ~policy =
    (* Ties break towards the least recently touched entry, like the
       store's version-ordered heap. *)
    let score e =
      match policy with
      | Cache.Policy.Lru -> (e.last, e.last)
      | Cache.Policy.Fifo -> (e.ins, e.last)
      | Cache.Policy.Lfu -> (float_of_int e.hits, e.last)
      | _ -> assert false
    in
    match t.entries with
    | [] -> None
    | e0 :: rest ->
        Some
          (List.fold_left
             (fun best e -> if score e < score best then e else best)
             e0 rest)

  let insert t ~policy ~now key =
    t.entries <- List.filter (fun e -> e.key <> key) t.entries;
    while List.length t.entries >= t.cap do
      match victim t ~policy with
      | Some v -> t.entries <- List.filter (fun e -> e.key <> v.key) t.entries
      | None -> assert false
    done;
    t.entries <- { key; last = now; hits = 0; ins = now } :: t.entries

  let keys t = List.map (fun e -> e.key) t.entries |> List.sort String.compare
end

let prop_store_matches_model policy =
  let name =
    Printf.sprintf "store agrees with reference model (%s)"
      (Cache.Policy.to_string policy)
  in
  QCheck.Test.make ~name ~count:120
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(1 -- 80) (pair bool (int_range 0 12))))
    (fun (cap, ops) ->
      let store, clock = make_store ~capacity:cap ~policy () in
      let model = Model.create cap in
      let t = ref 0. in
      List.for_all
        (fun (is_insert, k) ->
          t := !t +. 1.;
          clock := !t;
          let key = Printf.sprintf "k%d" k in
          if is_insert then begin
            ignore (Cache.Store.insert store (meta key) "v");
            Model.insert model ~policy ~now:!t key
          end
          else begin
            let real = Cache.Store.lookup store key <> None in
            let expected = Model.lookup model ~now:!t key in
            if real <> expected then raise Exit
          end;
          Cache.Store.keys store = Model.keys model)
        ops)

(* Purge against a model: random inserts with and without a TTL,
   lookups, removes, clock advances and purges on a small store (so
   evictions happen too; the model drops what [insert] reports evicted).
   Every purge must return exactly the model's expired entries, and the
   store must then hold exactly the model's live keys. *)
type purge_op =
  | P_insert of int * float option  (** key, TTL *)
  | P_lookup of int
  | P_remove of int
  | P_advance of float
  | P_purge

let print_purge_op = function
  | P_insert (k, None) -> Printf.sprintf "insert k%d" k
  | P_insert (k, Some ttl) -> Printf.sprintf "insert k%d ttl %g" k ttl
  | P_lookup k -> Printf.sprintf "lookup k%d" k
  | P_remove k -> Printf.sprintf "remove k%d" k
  | P_advance d -> Printf.sprintf "advance %g" d
  | P_purge -> "purge"

let gen_purge_op =
  let open QCheck.Gen in
  let key = 0 -- 9 in
  let span = oneof [ oneofl [ 0.; 0.5; 1.; 2. ]; float_bound_inclusive 3. ] in
  frequency
    [
      (4, map2 (fun k ttl -> P_insert (k, ttl)) key (opt ~ratio:0.6 span));
      (2, map (fun k -> P_lookup k) key);
      (1, map (fun k -> P_remove k) key);
      (3, map (fun d -> P_advance d) span);
      (3, return P_purge);
    ]

let count =
  match Option.bind (Sys.getenv_opt "QCHECK_COUNT") int_of_string_opt with
  | Some n -> n
  | None -> 300

let prop_purge_matches_model =
  QCheck.Test.make ~name:"purge returns the expired set" ~count
    QCheck.(
      pair (int_range 1 8)
        (make
           ~print:(fun ops -> String.concat "; " (List.map print_purge_op ops))
           Gen.(list_size (1 -- 60) gen_purge_op)))
    (fun (cap, ops) ->
      let store, clock = make_store ~capacity:cap () in
      let model : (string, float option) Hashtbl.t = Hashtbl.create 16 in
      let expired_at now = function Some e -> now >= e | None -> false in
      let sorted l = List.sort String.compare l in
      List.for_all
        (fun op ->
          let now = !clock in
          match op with
          | P_insert (k, ttl) ->
              let key = Printf.sprintf "k%d" k in
              let expires = Option.map (fun ttl -> now +. ttl) ttl in
              Hashtbl.remove model key;
              List.iter
                (fun m -> Hashtbl.remove model m.Cache.Meta.key)
                (Cache.Store.insert store (meta ?expires key) "v");
              Hashtbl.replace model key expires;
              true
          | P_lookup k ->
              let key = Printf.sprintf "k%d" k in
              let live =
                match Hashtbl.find_opt model key with
                | Some e when expired_at now e ->
                    Hashtbl.remove model key;
                    false
                | Some _ -> true
                | None -> false
              in
              (Cache.Store.lookup store key <> None) = live
          | P_remove k ->
              let key = Printf.sprintf "k%d" k in
              let present = Hashtbl.mem model key in
              Hashtbl.remove model key;
              Cache.Store.remove store key = present
          | P_advance d ->
              clock := now +. d;
              true
          | P_purge ->
              let expected =
                Hashtbl.fold (fun k e acc -> if expired_at now e then k :: acc else acc) model []
              in
              List.iter (Hashtbl.remove model) expected;
              let purged = List.map (fun m -> m.Cache.Meta.key) (Cache.Store.purge_expired store) in
              sorted purged = sorted expected
              && Cache.Store.keys store = sorted (Hashtbl.fold (fun k _ acc -> k :: acc) model []))
        ops)

let prop_store_never_exceeds_capacity =
  QCheck.Test.make ~name:"store never exceeds capacity under random ops"
    ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 100) (int_range 0 20)))
    (fun (cap, ops) ->
      let store, clock = make_store ~capacity:cap () in
      let t = ref 0. in
      List.for_all
        (fun k ->
          t := !t +. 1.;
          clock := !t;
          let key = Printf.sprintf "k%d" k in
          (if k mod 3 = 0 then ignore (Cache.Store.lookup store key)
           else if k mod 7 = 0 then ignore (Cache.Store.remove store key)
           else ignore (Cache.Store.insert store (meta key) "v"));
          Cache.Store.length store <= cap)
        ops)

let prop_store_insert_then_lookup_hits =
  QCheck.Test.make ~name:"freshly inserted key always hits" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 0 100))
    (fun ks ->
      let store, _ = make_store ~capacity:64 () in
      List.for_all
        (fun k ->
          let key = Printf.sprintf "k%d" k in
          ignore (Cache.Store.insert store (meta key) "v");
          Cache.Store.lookup store key <> None)
        ks)

(* ------------------------------------------------------------------ *)
(* Directory *)

let in_engine f =
  let eng = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn eng (fun () -> result := Some (f ()));
  Sim.Engine.run eng;
  match !result with Some v -> v | None -> Alcotest.fail "process did not run"

let test_directory_insert_lookup () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:3 () in
      Cache.Directory.insert d ~node:1 (meta ~owner:1 "k");
      (match Cache.Directory.lookup d ~now:0. "k" with
      | Some m -> check_int "owner" 1 m.Cache.Meta.owner
      | None -> Alcotest.fail "expected entry");
      check_bool "missing" true (Cache.Directory.lookup d ~now:0. "zz" = None))

let test_directory_lookup_prefers_self () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:3 () in
      Cache.Directory.insert d ~node:0 (meta ~owner:0 "k");
      Cache.Directory.insert d ~node:2 (meta ~owner:2 "k");
      match Cache.Directory.lookup_from d ~self:2 ~now:0. "k" with
      | Some m -> check_int "self first" 2 m.Cache.Meta.owner
      | None -> Alcotest.fail "expected entry")

let test_directory_delete () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:2 () in
      Cache.Directory.insert d ~node:0 (meta "k");
      check_bool "deleted" true (Cache.Directory.delete d ~node:0 "k");
      check_bool "gone" true (Cache.Directory.lookup d ~now:0. "k" = None);
      check_bool "idempotent" false (Cache.Directory.delete d ~node:0 "k"))

let test_directory_expired_skipped () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:1 () in
      Cache.Directory.insert d ~node:0 (meta ~expires:5. "k");
      check_bool "live" true (Cache.Directory.lookup d ~now:4. "k" <> None);
      check_bool "expired hidden" true (Cache.Directory.lookup d ~now:6. "k" = None);
      (* not removed: the owner's purge broadcast does that *)
      check_int "still stored" 1 (Cache.Directory.table_size d ~node:0))

let test_directory_sizes () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:3 () in
      Cache.Directory.insert d ~node:0 (meta "a");
      Cache.Directory.insert d ~node:1 (meta "b");
      Cache.Directory.insert d ~node:1 (meta "c");
      check_int "node0" 1 (Cache.Directory.table_size d ~node:0);
      check_int "node1" 2 (Cache.Directory.table_size d ~node:1);
      check_int "total" 3 (Cache.Directory.total_size d);
      check_int "entries list" 2 (List.length (Cache.Directory.entries d ~node:1));
      check_int "nodes" 3 (Cache.Directory.nodes d))

let test_directory_touch () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:1 () in
      Cache.Directory.insert d ~node:0 (meta "k");
      check_bool "touch hit" true (Cache.Directory.touch d ~node:0 "k" ~now:1.);
      check_bool "touch miss" false (Cache.Directory.touch d ~node:0 "zz" ~now:1.))

let test_directory_lock_counts_by_granularity () =
  let count gran =
    in_engine (fun () ->
        let d =
          Cache.Directory.create ~granularity:gran ~lock_overhead:0. ~nodes:4 ()
        in
        for i = 0 to 3 do
          Cache.Directory.insert d ~node:i (meta (Printf.sprintf "k%d" i))
        done;
        (* A miss probes all four tables. *)
        ignore (Cache.Directory.lookup_from d ~self:0 ~now:0. "absent");
        Cache.Directory.lock_acquisitions d)
  in
  let rd_g, wr_g = count Cache.Directory.Global in
  let rd_t, wr_t = count Cache.Directory.Per_table in
  let rd_e, _wr_e = count Cache.Directory.Per_entry in
  check_int "global writes" 4 wr_g;
  check_int "per-table writes" 4 wr_t;
  check_int "global reads: one per probe" 4 rd_g;
  check_int "per-table reads: one per probe" 4 rd_t;
  (* Per-entry charges one acquisition per entry scanned. *)
  check_bool "per-entry reads >= per-table" true (rd_e >= rd_t)

let test_directory_out_of_range () =
  in_engine (fun () ->
      let d = Cache.Directory.create ~nodes:2 () in
      Alcotest.check_raises "bad node"
        (Invalid_argument "Directory: node out of range") (fun () ->
          Cache.Directory.insert d ~node:5 (meta "k")))

let test_directory_lock_overhead_advances_clock () =
  let eng = Sim.Engine.create () in
  let took = ref 0. in
  Sim.Engine.spawn eng (fun () ->
      let d = Cache.Directory.create ~lock_overhead:0.001 ~nodes:4 () in
      ignore (Cache.Directory.lookup_from d ~self:0 ~now:0. "absent");
      took := Sim.Engine.now ());
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "4 probes x 1ms" 0.004 !took

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_hit_ratio () =
  let s = Cache.Stats.create () in
  check_float "empty" 0. (Cache.Stats.hit_ratio s);
  s.Cache.Stats.hits <- 3;
  s.Cache.Stats.misses <- 1;
  check_float "3/4" 0.75 (Cache.Stats.hit_ratio s)

let test_stats_merge () =
  let a = Cache.Stats.create () and b = Cache.Stats.create () in
  a.Cache.Stats.hits <- 2;
  b.Cache.Stats.hits <- 3;
  b.Cache.Stats.evictions <- 1;
  let m = Cache.Stats.merge a b in
  check_int "hits" 5 m.Cache.Stats.hits;
  check_int "evictions" 1 m.Cache.Stats.evictions

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "cache"
    [
      ( "meta",
        [
          Alcotest.test_case "expiry" `Quick test_meta_expiry;
          Alcotest.test_case "no expiry" `Quick test_meta_no_expiry;
          Alcotest.test_case "validation" `Quick test_meta_validation;
        ] );
      ( "policy",
        [
          Alcotest.test_case "priorities" `Quick test_policy_priorities;
          Alcotest.test_case "gdsf clock" `Quick test_policy_gdsf_clock;
          Alcotest.test_case "gdsf values exec/size" `Quick test_policy_gdsf_prefers_valuable;
          Alcotest.test_case "string roundtrip" `Quick test_policy_string_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "insert and lookup" `Quick test_store_insert_lookup;
          Alcotest.test_case "replace same key" `Quick test_store_replace_same_key;
          Alcotest.test_case "deferred bodies: fixed words per entry" `Quick
            test_store_deferred_retention;
          Alcotest.test_case "capacity enforced" `Quick test_store_capacity_enforced;
          Alcotest.test_case "LRU victim" `Quick test_store_lru_victim;
          Alcotest.test_case "FIFO victim" `Quick test_store_fifo_victim;
          Alcotest.test_case "LFU victim" `Quick test_store_lfu_victim;
          Alcotest.test_case "largest-size victim" `Quick test_store_size_victim;
          Alcotest.test_case "cheapest-recompute victim" `Quick test_store_exec_victim;
          Alcotest.test_case "random policy bounded" `Quick test_store_random_policy_works;
          Alcotest.test_case "random needs rng" `Quick test_store_random_requires_rng;
          Alcotest.test_case "gdsf ages out stale entries" `Quick test_store_gdsf_aging;
          Alcotest.test_case "remove" `Quick test_store_remove;
          Alcotest.test_case "TTL expiry on lookup" `Quick test_store_ttl_expiry_on_lookup;
          Alcotest.test_case "purge expired" `Quick test_store_purge_expired;
          Alcotest.test_case "TTL-free store purges nothing" `Quick test_store_purge_ttl_free;
          Alcotest.test_case "stale purge bound rescans once" `Quick
            test_store_purge_stale_bound;
          Alcotest.test_case "peek is stat-neutral" `Quick test_store_peek_no_stats;
          Alcotest.test_case "peek does not refresh LRU" `Quick
            test_store_peek_does_not_refresh_lru;
          Alcotest.test_case "keys sorted" `Quick test_store_keys_sorted;
        ] );
      qsuite "store-props"
        [
          prop_store_never_exceeds_capacity;
          prop_store_insert_then_lookup_hits;
          prop_store_matches_model Cache.Policy.Lru;
          prop_store_matches_model Cache.Policy.Fifo;
          prop_store_matches_model Cache.Policy.Lfu;
        ];
      qsuite "purge-bound" [ prop_purge_matches_model ];
      ( "directory",
        [
          Alcotest.test_case "insert and lookup" `Quick test_directory_insert_lookup;
          Alcotest.test_case "lookup prefers self" `Quick test_directory_lookup_prefers_self;
          Alcotest.test_case "delete" `Quick test_directory_delete;
          Alcotest.test_case "expired entries skipped" `Quick test_directory_expired_skipped;
          Alcotest.test_case "table sizes" `Quick test_directory_sizes;
          Alcotest.test_case "touch" `Quick test_directory_touch;
          Alcotest.test_case "lock counts per granularity" `Quick
            test_directory_lock_counts_by_granularity;
          Alcotest.test_case "node range checked" `Quick test_directory_out_of_range;
          Alcotest.test_case "lock overhead advances clock" `Quick
            test_directory_lock_overhead_advances_clock;
        ] );
      ( "stats",
        [
          Alcotest.test_case "hit ratio" `Quick test_stats_hit_ratio;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
    ]
