(* Tests for workload generation and analysis: traces, log format,
   WebStone mix, synthetic generators, Table-1 analyzer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float_eps eps = Alcotest.(check (float eps))
let check_string = Alcotest.(check string)

let cgi ?(id = 0) ?(script = "/cgi-bin/q") ?(demand = 1.0) ?(out = 100) key =
  {
    Workload.Trace.id;
    kind = Workload.Trace.Cgi { script; args = [ ("q", key) ]; demand; out_bytes = out };
  }

let file ?(id = 0) path bytes =
  { Workload.Trace.id; kind = Workload.Trace.File { path; bytes } }

(* ------------------------------------------------------------------ *)
(* Trace *)

(* Reference model for the ingest tests: how a trace item became a
   request before requests were built from their parts (the URI printed,
   then parsed back by [Http.Request.make]), and [Http.Request.cache_key]
   as it was then. *)
let round_trip_request (item : Workload.Trace.item) =
  match item.kind with
  | File { path; _ } -> Http.Request.get path
  | Cgi { script; args; _ } ->
      let uri = { Http.Uri.path = script; query = args } in
      Http.Request.make Http.Meth.Get (Http.Uri.to_string uri)

let printed_cache_key (t : Http.Request.t) =
  Http.Meth.to_string t.meth ^ " " ^ Http.Uri.to_string (Http.Uri.canonical t.uri)

let test_trace_key_stability () =
  let a = cgi "alpha" and b = cgi "alpha" in
  check_string "same args same key" (Workload.Trace.key a) (Workload.Trace.key b);
  let c = cgi "beta" in
  check_bool "different args differ" true
    (Workload.Trace.key a <> Workload.Trace.key c)

let test_trace_to_request () =
  let item = cgi ~demand:2.0 "maps" in
  let req = Workload.Trace.to_request item in
  Alcotest.(check (option string)) "arg carried" (Some "maps")
    (Http.Uri.query_get req.Http.Request.uri "q");
  check_string "path" "/cgi-bin/q" req.Http.Request.uri.Http.Uri.path

(* A script path must be absolute; building the request from its parts
   keeps the check that parsing the printed URI made. *)
let test_trace_to_request_relative () =
  let raises script =
    try
      ignore (Workload.Trace.to_request (cgi ~script "k") : Http.Request.t);
      false
    with Invalid_argument _ -> true
  in
  check_bool "no leading slash" true (raises "cgi-bin/q");
  check_bool "empty script" true (raises "");
  check_bool "relative, as before" true
    (try
       ignore (round_trip_request (cgi ~script:"cgi-bin/q" "k"));
       false
     with Invalid_argument _ -> true)

let test_trace_service_time () =
  check_float_eps 1e-9 "cgi = demand" 2.5
    (Workload.Trace.service_time (cgi ~demand:2.5 "k"));
  let f = file "/doc" 80_000 in
  (* open cost + bytes at memory bandwidth *)
  check_float_eps 1e-9 "file" 0.003 (Workload.Trace.service_time f)

let test_trace_aggregates () =
  let t = [ cgi ~demand:1.0 "a"; cgi ~demand:2.0 "a"; file "/f" 0 ] in
  check_int "length" 3 (Workload.Trace.length t);
  check_int "unique" 2 (Workload.Trace.unique_keys t);
  check_bool "is_cgi" true (Workload.Trace.is_cgi (cgi "x"));
  check_bool "file not cgi" false (Workload.Trace.is_cgi (file "/f" 1));
  check_float_eps 1e-6 "total" (1.0 +. 2.0 +. 0.002) (Workload.Trace.total_service t)

(* ------------------------------------------------------------------ *)
(* Logfmt *)

let test_logfmt_roundtrip_explicit () =
  let trace =
    [
      file ~id:0 "/docs/a.html" 512;
      cgi ~id:1 ~demand:1.5 ~out:2048 "query one";
      cgi ~id:2 ~demand:0.25 "k&v=x";
    ]
  in
  match Workload.Logfmt.of_string (Workload.Logfmt.to_string trace) with
  | Ok trace' ->
      check_int "length" 3 (List.length trace');
      List.iter2
        (fun a b ->
          check_string "key preserved" (Workload.Trace.key a) (Workload.Trace.key b);
          check_float_eps 1e-9 "service preserved" (Workload.Trace.service_time a)
            (Workload.Trace.service_time b))
        trace trace'
  | Error e -> Alcotest.fail e

let test_logfmt_comments_and_blanks () =
  let s = "# comment\n\n0\tFILE\t/a\t100\n" in
  match Workload.Logfmt.of_string s with
  | Ok [ item ] ->
      check_string "path" "GET /a" (Workload.Trace.key item)
  | Ok _ -> Alcotest.fail "expected one item"
  | Error e -> Alcotest.fail e

let test_logfmt_bad_lines () =
  check_bool "garbage" true
    (Result.is_error (Workload.Logfmt.of_string "hello world\n"));
  check_bool "bad number" true
    (Result.is_error (Workload.Logfmt.of_string "x\tFILE\t/a\t100\n"));
  (match Workload.Logfmt.of_string "0\tFILE\t/a\tnope\n" with
  | Error e -> check_bool "line number reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should fail")

let prop_logfmt_roundtrip =
  let gen_item =
    QCheck.Gen.(
      let* id = 0 -- 1000 in
      let* is_file = bool in
      if is_file then
        let* bytes = 0 -- 100_000 in
        let* seg = string_size ~gen:(char_range 'a' 'z') (1 -- 10) in
        return (file ~id ("/" ^ seg) bytes)
      else
        let* demand = float_bound_exclusive 10. in
        let* key = string_size ~gen:(char_range 'a' 'z') (1 -- 10) in
        return (cgi ~id ~demand key))
  in
  QCheck.Test.make ~name:"logfmt roundtrips arbitrary traces" ~count:100
    (QCheck.make QCheck.Gen.(list_size (0 -- 20) gen_item))
    (fun trace ->
      match Workload.Logfmt.of_string (Workload.Logfmt.to_string trace) with
      | Ok trace' ->
          List.length trace = List.length trace'
          && List.for_all2
               (fun a b ->
                 Workload.Trace.key a = Workload.Trace.key b
                 && Float.abs
                      (Workload.Trace.service_time a
                      -. Workload.Trace.service_time b)
                    < 1e-9)
               trace trace'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Webstone *)

let test_webstone_mix_weights_sum () =
  let total =
    List.fold_left (fun acc (_, _, w) -> acc +. w) 0. Workload.Webstone.file_mix
  in
  check_float_eps 1e-9 "weights sum to 1" 1.0 total

let test_webstone_mix_frequencies () =
  let trace = Workload.Webstone.file_trace ~seed:5 ~n:20_000 in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun item ->
      match item.Workload.Trace.kind with
      | Workload.Trace.File { path; _ } ->
          Hashtbl.replace counts path
            (1 + Option.value (Hashtbl.find_opt counts path) ~default:0)
      | Workload.Trace.Cgi _ -> Alcotest.fail "files only")
    trace;
  let freq path =
    float_of_int (Option.value (Hashtbl.find_opt counts path) ~default:0)
    /. 20_000.
  in
  check_float_eps 0.02 "500b ~ 35%" 0.35 (freq "/files/doc-500b.html");
  check_float_eps 0.02 "5k ~ 50%" 0.50 (freq "/files/doc-5k.html");
  check_float_eps 0.02 "50k ~ 14%" 0.14 (freq "/files/doc-50k.html")

let test_webstone_mean_bytes () =
  (* 0.35*500 + 0.5*5000 + 0.14*50000 + 0.009*500000 + 0.001*1000000 *)
  check_float_eps 1. "mean" 15175. Workload.Webstone.mean_file_bytes

let test_webstone_null_cgi () =
  let t = Workload.Webstone.null_cgi_trace ~n:5 in
  check_int "count" 5 (List.length t);
  List.iter
    (fun item ->
      check_float_eps 1e-9 "no work" 0. (Workload.Trace.service_time item);
      check_string "all identical" (Workload.Trace.key (List.hd t))
        (Workload.Trace.key item))
    t

let test_webstone_registers_files () =
  let r = Cgi.Registry.create () in
  Workload.Webstone.register_files r;
  check_int "five docs" 5 (Cgi.Registry.file_count r);
  match Cgi.Registry.resolve r "/files/doc-1m.html" with
  | Some (Cgi.Registry.Static_file { bytes; _ }) -> check_int "1MB" 1_000_000 bytes
  | Some (Cgi.Registry.Cgi_script _) | None -> Alcotest.fail "file expected"

(* ------------------------------------------------------------------ *)
(* Synthetic: ADL *)

let adl_small =
  lazy
    (Workload.Synthetic.adl ~seed:11
       ~params:
         { Workload.Synthetic.default_adl with n_requests = 20_000; n_hot = 80 }
       ())

let test_adl_counts () =
  let trace = Lazy.force adl_small in
  check_int "n_requests" 20_000 (Workload.Trace.length trace)

let test_adl_cgi_fraction () =
  let trace = Lazy.force adl_small in
  let n_cgi = List.length (List.filter Workload.Trace.is_cgi trace) in
  check_float_eps 0.02 "~41.3% CGI" 0.413
    (float_of_int n_cgi /. 20_000.)

let test_adl_mean_cgi_time () =
  let trace = Lazy.force adl_small in
  let s = Workload.Analyzer.summarize trace in
  (* Paper: 1.6 s mean CGI service time; generator is calibrated to it. *)
  check_float_eps 0.25 "mean cgi" 1.6 s.Workload.Analyzer.mean_cgi_time

let test_adl_cgi_dominates_service_time () =
  let trace = Lazy.force adl_small in
  let s = Workload.Analyzer.summarize trace in
  (* Paper: 97% of total service time is CGI. *)
  check_bool "> 90%" true (s.Workload.Analyzer.cgi_time_fraction > 0.9)

let test_adl_deterministic () =
  let a = Workload.Synthetic.adl_scaled ~seed:3 ~n:2_000 in
  let b = Workload.Synthetic.adl_scaled ~seed:3 ~n:2_000 in
  check_bool "same seed same trace" true
    (List.for_all2
       (fun x y -> Workload.Trace.key x = Workload.Trace.key y)
       a b);
  let c = Workload.Synthetic.adl_scaled ~seed:4 ~n:2_000 in
  check_bool "different seed differs" true
    (not
       (List.for_all2
          (fun x y -> Workload.Trace.key x = Workload.Trace.key y)
          a c))

let test_adl_repeats_concentrated () =
  (* Hot keys repeat; cold keys are one-offs: so repeats exist but unique
     repeated keys are a small fraction of all keys. *)
  let trace = Lazy.force adl_small in
  let cgis = List.filter Workload.Trace.is_cgi trace in
  let counts = Hashtbl.create 1024 in
  List.iter
    (fun i ->
      let k = Workload.Trace.key i in
      Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    cgis;
  let repeated =
    Hashtbl.fold (fun _ n acc -> if n >= 2 then acc + 1 else acc) counts 0
  in
  check_bool "some repetition" true (repeated > 10);
  check_bool "concentrated" true (repeated < 200)

(* ------------------------------------------------------------------ *)
(* Synthetic: coop + unique *)

let test_coop_exact_counts () =
  let t = Workload.Synthetic.coop ~seed:7 ~n:1600 ~n_unique:1122 () in
  check_int "n" 1600 (Workload.Trace.length t);
  check_int "unique" 1122 (Workload.Trace.unique_keys t);
  check_int "upper bound" 478 (Workload.Analyzer.upper_bound_hits t)

let test_coop_all_cgi_cacheable () =
  let t = Workload.Synthetic.coop ~seed:7 ~n:100 ~n_unique:80 ~n_hot:10 () in
  check_bool "all cgi" true (List.for_all Workload.Trace.is_cgi t)

let test_coop_validation () =
  let inv f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "unique > n" true
    (inv (fun () -> Workload.Synthetic.coop ~seed:1 ~n:10 ~n_unique:20 ()));
  check_bool "hot > unique" true
    (inv (fun () ->
         Workload.Synthetic.coop ~seed:1 ~n:30 ~n_unique:20 ~n_hot:25 ()));
  (* The default hot set shrinks to a smaller universe instead. *)
  check_int "default hot set fits one key" 1
    (Workload.Trace.length
       (Workload.Synthetic.coop ~seed:1 ~n:1 ~n_unique:1 ()));
  check_bool "bad locality" true
    (inv (fun () ->
         Workload.Synthetic.coop ~seed:1 ~n:30 ~n_unique:20 ~locality:0. ()))

let test_coop_locality_clusters_repeats () =
  (* With strong locality the mean gap (in positions) between successive
     references to the same key must shrink. *)
  let mean_gap trace =
    let last = Hashtbl.create 256 in
    let gaps = ref [] in
    List.iteri
      (fun i item ->
        let k = Workload.Trace.key item in
        (match Hashtbl.find_opt last k with
        | Some j -> gaps := (i - j) :: !gaps
        | None -> ());
        Hashtbl.replace last k i)
      trace;
    match !gaps with
    | [] -> 0.
    | gs ->
        float_of_int (List.fold_left ( + ) 0 gs) /. float_of_int (List.length gs)
  in
  let clustered =
    Workload.Synthetic.coop ~seed:9 ~n:1600 ~n_unique:1122 ~locality:0.02 ()
  in
  let spread =
    Workload.Synthetic.coop ~seed:9 ~n:1600 ~n_unique:1122 ~locality:1.0 ()
  in
  check_bool "locality shrinks gaps" true (mean_gap clustered < mean_gap spread)

let test_unique_cacheable_all_distinct () =
  let t = Workload.Synthetic.unique_cacheable ~n:180 ~demand:1.0 in
  check_int "count" 180 (Workload.Trace.length t);
  check_int "all unique" 180 (Workload.Trace.unique_keys t);
  check_int "no possible hits" 0 (Workload.Analyzer.upper_bound_hits t);
  List.iter
    (fun i -> check_float_eps 1e-9 "demand 1s" 1.0 (Workload.Trace.service_time i))
    t

let test_uncacheable_script_flag () =
  let r = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts r;
  let t = Workload.Synthetic.uncacheable ~n:3 ~demand:1.0 in
  let item = List.hd t in
  match item.Workload.Trace.kind with
  | Workload.Trace.Cgi { script; _ } -> (
      match Cgi.Registry.find_script r script with
      | Some s -> check_bool "not cacheable" false s.Cgi.Script.cacheable
      | None -> Alcotest.fail "script not registered")
  | Workload.Trace.File _ -> Alcotest.fail "cgi expected"

let test_register_trace_files () =
  let r = Cgi.Registry.create () in
  let trace = [ file "/adl/doc1" 100; file "/adl/doc2" 200; cgi "k" ] in
  Workload.Synthetic.register_trace_files r trace;
  check_int "two files" 2 (Cgi.Registry.file_count r)

(* ------------------------------------------------------------------ *)
(* Generator edge cases *)

let test_webstone_empty_mix () =
  let t = Workload.Webstone.file_trace ~seed:1 ~n:0 in
  check_int "empty trace" 0 (Workload.Trace.length t);
  check_int "no keys" 0 (Workload.Trace.unique_keys t)

let test_coop_single_key_zipf () =
  (* A one-key universe is a degenerate Zipf: every request references the
     same key and every request but the first is a potential hit. *)
  let t = Workload.Synthetic.coop ~seed:3 ~n:50 ~n_unique:1 ~n_hot:1 () in
  check_int "n" 50 (Workload.Trace.length t);
  check_int "one key" 1 (Workload.Trace.unique_keys t);
  check_int "all repeats" 49 (Workload.Analyzer.upper_bound_hits t)

let test_coop_replay_determinism () =
  (* Stronger than key equality: the whole item (key, demand, output size)
     must replay identically for a fixed seed — the property the scenario
     byte-identity tests build on. *)
  let gen () =
    Workload.Synthetic.coop ~seed:17 ~n:300 ~n_unique:90 ~n_hot:9
      ~zipf_s:1.2 ~demand:0.25 ~out_bytes:1234 ~locality:0.1 ()
  in
  List.iter2
    (fun a b ->
      check_string "key" (Workload.Trace.key a) (Workload.Trace.key b);
      check_float_eps 0. "service" (Workload.Trace.service_time a)
        (Workload.Trace.service_time b);
      check_int "id" a.Workload.Trace.id b.Workload.Trace.id)
    (gen ()) (gen ())

let test_scenario_window_clipped () =
  (* A crowd window running past the end of the scenario is clipped: the
     post (and, here, decay) phases have zero duration and are dropped,
     and the tiling still ends exactly at the duration. *)
  let sc =
    Workload.Scenario.make ~duration:10.
      ~flash:
        (Workload.Scenario.flash_crowd ~at:6. ~duration:50. ~decay:10. ())
      ()
  in
  (match Workload.Scenario.phases sc with
  | [ ("pre", _, _); ("crowd", c0, c1) ] ->
      check_float_eps 1e-9 "crowd clipped start" 6. c0;
      check_float_eps 1e-9 "crowd clipped stop" 10. c1
  | _ -> Alcotest.fail "clipped schedule expected");
  check_int "zero requests give zero arrivals" 0
    (Array.length
       (Workload.Scenario.arrival_times
          (Workload.Scenario.make ~duration:10.
             ~diurnal:(Workload.Scenario.Sinusoid { period = 10.; trough = 0.5 })
             ())
          ~n:0))

(* ------------------------------------------------------------------ *)
(* Analyzer *)

let test_analyzer_hand_built () =
  (* 3x "a" (2.0s), 2x "b" (0.5s), 1x "c" (3.0s), one file. *)
  let trace =
    [
      cgi ~demand:2.0 "a"; cgi ~demand:2.0 "a"; cgi ~demand:2.0 "a";
      cgi ~demand:0.5 "b"; cgi ~demand:0.5 "b";
      cgi ~demand:3.0 "c";
      file "/f" 0;
    ]
  in
  let rows = Workload.Analyzer.table1 trace ~thresholds:[ 0.4; 1.0 ] in
  (match rows with
  | [ r04; r10 ] ->
      (* threshold 0.4: candidates a,a,a,b,b,c = 6 *)
      check_int "long @0.4" 6 r04.Workload.Analyzer.n_long;
      check_int "repeats @0.4" 3 r04.Workload.Analyzer.total_repeats;
      check_int "unique @0.4" 2 r04.Workload.Analyzer.unique_repeats;
      check_float_eps 1e-9 "saved @0.4" 4.5 r04.Workload.Analyzer.time_saved;
      (* threshold 1.0: candidates a,a,a,c *)
      check_int "long @1.0" 4 r10.Workload.Analyzer.n_long;
      check_int "repeats @1.0" 2 r10.Workload.Analyzer.total_repeats;
      check_int "unique @1.0" 1 r10.Workload.Analyzer.unique_repeats;
      check_float_eps 1e-9 "saved @1.0" 4.0 r10.Workload.Analyzer.time_saved
  | _ -> Alcotest.fail "two rows expected");
  let s = Workload.Analyzer.summarize trace in
  check_int "total" 7 s.Workload.Analyzer.n_total;
  check_int "cgi" 6 s.Workload.Analyzer.n_cgi;
  check_float_eps 1e-9 "longest" 3.0 s.Workload.Analyzer.longest

let test_analyzer_saved_fraction_bounded () =
  let trace = Lazy.force adl_small in
  let rows = Workload.Analyzer.table1 trace ~thresholds:[ 0.5; 1.0; 2.0; 4.0 ] in
  List.iter
    (fun r ->
      check_bool "fraction in [0,1]" true
        (r.Workload.Analyzer.saved_fraction >= 0.
        && r.Workload.Analyzer.saved_fraction <= 1.))
    rows;
  (* Higher thresholds can only reduce the saving. *)
  let fractions = List.map (fun r -> r.Workload.Analyzer.saved_fraction) rows in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && decreasing rest
    | _ -> true
  in
  check_bool "monotone" true (decreasing fractions)

let test_analyzer_files_never_counted () =
  let trace = [ file "/f" 1_000_000; file "/f" 1_000_000 ] in
  let rows = Workload.Analyzer.table1 trace ~thresholds:[ 0.0 ] in
  match rows with
  | [ r ] ->
      check_int "no cgi candidates" 0 r.Workload.Analyzer.n_long;
      check_int "no repeats" 0 r.Workload.Analyzer.total_repeats
  | _ -> Alcotest.fail "one row"

let test_analyzer_empty_trace () =
  let rows = Workload.Analyzer.table1 [] ~thresholds:[ 1.0 ] in
  (match rows with
  | [ r ] ->
      check_int "zero" 0 r.Workload.Analyzer.n_long;
      check_float_eps 1e-9 "zero saved" 0. r.Workload.Analyzer.time_saved
  | _ -> Alcotest.fail "one row");
  let s = Workload.Analyzer.summarize [] in
  check_int "empty summary" 0 s.Workload.Analyzer.n_total;
  check_int "upper bound" 0 (Workload.Analyzer.upper_bound_hits [])

let prop_upper_bound_bounds_repeats =
  QCheck.Test.make ~name:"upper bound = n_cgi - unique_cgi" ~count:100
    QCheck.(list_of_size Gen.(0 -- 50) (int_range 0 10))
    (fun ks ->
      let trace = List.mapi (fun id k -> cgi ~id (Printf.sprintf "k%d" k)) ks in
      let n = List.length trace in
      let unique = Workload.Trace.unique_keys trace in
      Workload.Analyzer.upper_bound_hits trace = n - unique)

(* ------------------------------------------------------------------ *)
(* Ingest: requests built from parts against the print/parse round trip *)

let count =
  match Option.bind (Sys.getenv_opt "QCHECK_COUNT") int_of_string_opt with
  | Some n -> n
  | None -> 300

(* Every character the URI codec treats specially, spaces, non-ASCII
   bytes, and empty strings. *)
let gen_piece =
  QCheck.Gen.(
    oneof
      [
        return "";
        string_size
          ~gen:
            (oneofl
               [ '%'; '+'; '='; '&'; '?'; '/'; ' '; '#'; 'a'; 'Z'; '0'; '-';
                 '.'; '~'; '\xc3'; '\xa9'; '\xff' ])
          (1 -- 12);
        string_size ~gen:char (1 -- 8);
      ])

let gen_cgi_item =
  QCheck.Gen.(
    map2
      (fun script args ->
        {
          Workload.Trace.id = 0;
          kind =
            Workload.Trace.Cgi
              { script = "/" ^ script; args; demand = 1.0; out_bytes = 4096 };
        })
      gen_piece
      (list_size (0 -- 5) (pair gen_piece gen_piece)))

let print_item (item : Workload.Trace.item) =
  match item.kind with
  | Workload.Trace.Cgi { script; args; _ } ->
      Printf.sprintf "script=%S args=[%s]" script
        (String.concat "; "
           (List.map (fun (k, v) -> Printf.sprintf "%S, %S" k v) args))
  | Workload.Trace.File { path; _ } -> path

let arb_item = QCheck.make ~print:print_item gen_cgi_item

let prop_to_request_matches_round_trip =
  QCheck.Test.make ~name:"to_request = make of printed URI" ~count arb_item
    (fun item ->
      Workload.Trace.to_request item = round_trip_request item)

let prop_ingest_wire_size =
  QCheck.Test.make ~name:"wire_size = length of to_wire" ~count arb_item
    (fun item ->
      let r = Workload.Trace.to_request item in
      Http.Request.wire_size r = String.length (Http.Request.to_wire r))

let prop_cache_key_matches =
  QCheck.Test.make ~name:"cache_key = printed canonical key" ~count
    QCheck.(pair (make Gen.(oneofl Http.Meth.[ Get; Head; Post ])) arb_item)
    (fun (meth, item) ->
      let r = Workload.Trace.to_request item in
      let r = Http.Request.of_uri meth r.Http.Request.uri in
      Http.Request.cache_key r = printed_cache_key r
      && Workload.Trace.key item = printed_cache_key (round_trip_request item))

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "workload"
    [
      ( "trace",
        [
          Alcotest.test_case "key stability" `Quick test_trace_key_stability;
          Alcotest.test_case "to_request" `Quick test_trace_to_request;
          Alcotest.test_case "to_request rejects relative script" `Quick
            test_trace_to_request_relative;
          Alcotest.test_case "service time" `Quick test_trace_service_time;
          Alcotest.test_case "aggregates" `Quick test_trace_aggregates;
        ] );
      qsuite "ingest-props"
        [
          prop_to_request_matches_round_trip;
          prop_ingest_wire_size;
          prop_cache_key_matches;
        ];
      ( "logfmt",
        [
          Alcotest.test_case "roundtrip" `Quick test_logfmt_roundtrip_explicit;
          Alcotest.test_case "comments and blanks" `Quick test_logfmt_comments_and_blanks;
          Alcotest.test_case "bad lines rejected" `Quick test_logfmt_bad_lines;
        ] );
      qsuite "logfmt-props" [ prop_logfmt_roundtrip ];
      ( "webstone",
        [
          Alcotest.test_case "mix weights" `Quick test_webstone_mix_weights_sum;
          Alcotest.test_case "mix frequencies" `Quick test_webstone_mix_frequencies;
          Alcotest.test_case "mean bytes" `Quick test_webstone_mean_bytes;
          Alcotest.test_case "null cgi trace" `Quick test_webstone_null_cgi;
          Alcotest.test_case "registers files" `Quick test_webstone_registers_files;
        ] );
      ( "adl",
        [
          Alcotest.test_case "request count" `Quick test_adl_counts;
          Alcotest.test_case "CGI fraction ~41%" `Quick test_adl_cgi_fraction;
          Alcotest.test_case "mean CGI time ~1.6s" `Quick test_adl_mean_cgi_time;
          Alcotest.test_case "CGI dominates service time" `Quick
            test_adl_cgi_dominates_service_time;
          Alcotest.test_case "deterministic per seed" `Quick test_adl_deterministic;
          Alcotest.test_case "repeats concentrated in hot set" `Quick
            test_adl_repeats_concentrated;
        ] );
      ( "coop",
        [
          Alcotest.test_case "exact 1600/1122/478" `Quick test_coop_exact_counts;
          Alcotest.test_case "all CGI" `Quick test_coop_all_cgi_cacheable;
          Alcotest.test_case "validation" `Quick test_coop_validation;
          Alcotest.test_case "locality clusters repeats" `Quick
            test_coop_locality_clusters_repeats;
          Alcotest.test_case "unique workload distinct" `Quick
            test_unique_cacheable_all_distinct;
          Alcotest.test_case "uncacheable script flag" `Quick test_uncacheable_script_flag;
          Alcotest.test_case "register trace files" `Quick test_register_trace_files;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty webstone mix" `Quick test_webstone_empty_mix;
          Alcotest.test_case "single-key Zipf" `Quick test_coop_single_key_zipf;
          Alcotest.test_case "replay determinism" `Quick
            test_coop_replay_determinism;
          Alcotest.test_case "crowd window clipped at run end" `Quick
            test_scenario_window_clipped;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "hand-built trace exact" `Quick test_analyzer_hand_built;
          Alcotest.test_case "saved fraction bounded+monotone" `Quick
            test_analyzer_saved_fraction_bounded;
          Alcotest.test_case "files never candidates" `Quick test_analyzer_files_never_counted;
          Alcotest.test_case "empty trace" `Quick test_analyzer_empty_trace;
        ] );
      qsuite "analyzer-props" [ prop_upper_bound_bounds_repeats ];
    ]
