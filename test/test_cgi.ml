(* Tests for the CGI substrate: cost model, scripts, registry. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_defaults () =
  let c = Cgi.Cost.make (Cgi.Cost.Fixed 1.0) in
  check_float "fork default" 0.03 c.Cgi.Cost.fork_exec;
  check_int "output default" 4096 c.Cgi.Cost.output_bytes

let test_cost_validation () =
  let inv f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "neg fork" true
    (inv (fun () -> Cgi.Cost.make ~fork_exec:(-1.) (Cgi.Cost.Fixed 1.)));
  check_bool "neg out" true
    (inv (fun () -> Cgi.Cost.make ~output_bytes:(-1) (Cgi.Cost.Fixed 1.)));
  check_bool "neg fixed" true (inv (fun () -> Cgi.Cost.make (Cgi.Cost.Fixed (-1.))));
  check_bool "bad lognormal" true
    (inv (fun () -> Cgi.Cost.make (Cgi.Cost.Lognormal { mean = 0.; cv = 1. })));
  check_bool "bad uniform" true
    (inv (fun () -> Cgi.Cost.make (Cgi.Cost.Uniform { lo = 2.; hi = 1. })));
  check_bool "bad from_query" true
    (inv (fun () -> Cgi.Cost.make (Cgi.Cost.From_query { default = -1. })))

let test_cost_fixed_demand () =
  let c = Cgi.Cost.make (Cgi.Cost.Fixed 2.5) in
  let rng = Sim.Rng.create 1 in
  check_float "fixed" 2.5 (Cgi.Cost.sample_demand c rng);
  check_float "mean" 2.5 (Cgi.Cost.mean_demand c)

let test_cost_uniform_demand () =
  let c = Cgi.Cost.make (Cgi.Cost.Uniform { lo = 1.; hi = 3. }) in
  let rng = Sim.Rng.create 2 in
  for _ = 1 to 100 do
    let d = Cgi.Cost.sample_demand c rng in
    check_bool "in range" true (d >= 1. && d < 3.)
  done;
  check_float "mean" 2.0 (Cgi.Cost.mean_demand c)

let test_cost_lognormal_mean () =
  let c = Cgi.Cost.make (Cgi.Cost.Lognormal { mean = 1.6; cv = 1.0 }) in
  let rng = Sim.Rng.create 3 in
  let acc = ref 0. in
  let n = 30_000 in
  for _ = 1 to n do
    acc := !acc +. Cgi.Cost.sample_demand c rng
  done;
  Alcotest.(check (float 0.08)) "empirical mean" 1.6 (!acc /. float_of_int n)

let test_cost_from_query () =
  let c = Cgi.Cost.make (Cgi.Cost.From_query { default = 0.7 }) in
  let rng = Sim.Rng.create 4 in
  check_float "xd honoured" 1.25
    (Cgi.Cost.demand_for c rng ~query:[ ("q", "a"); ("xd", "1.25") ]);
  check_float "default without xd" 0.7 (Cgi.Cost.demand_for c rng ~query:[]);
  check_float "bad xd falls back" 0.7
    (Cgi.Cost.demand_for c rng ~query:[ ("xd", "junk") ]);
  check_float "negative xd falls back" 0.7
    (Cgi.Cost.demand_for c rng ~query:[ ("xd", "-3") ])

let test_cost_from_query_ignored_for_fixed () =
  let c = Cgi.Cost.make (Cgi.Cost.Fixed 2.0) in
  let rng = Sim.Rng.create 5 in
  check_float "fixed ignores xd" 2.0
    (Cgi.Cost.demand_for c rng ~query:[ ("xd", "9") ])

let test_cost_output_bytes_for () =
  let c = Cgi.Cost.make ~output_bytes:100 (Cgi.Cost.Fixed 1.) in
  check_int "xb override" 5000 (Cgi.Cost.output_bytes_for c ~query:[ ("xb", "5000") ]);
  check_int "default" 100 (Cgi.Cost.output_bytes_for c ~query:[]);
  check_int "negative rejected" 100 (Cgi.Cost.output_bytes_for c ~query:[ ("xb", "-5") ])

(* ------------------------------------------------------------------ *)
(* Script *)

let test_script_make_validation () =
  let cost = Cgi.Cost.make (Cgi.Cost.Fixed 1.) in
  Alcotest.check_raises "relative name"
    (Invalid_argument "Script.make: name must be an absolute path") (fun () ->
      ignore (Cgi.Script.make ~name:"oops" cost));
  Alcotest.check_raises "bad failure rate"
    (Invalid_argument "Script.make: failure_rate out of [0,1]") (fun () ->
      ignore (Cgi.Script.make ~failure_rate:1.5 ~name:"/x" cost))

let test_script_null () =
  let s = Cgi.Script.null in
  check_string "name" "/cgi-bin/nullcgi" s.Cgi.Script.name;
  check_float "no work" 0. (Cgi.Cost.mean_demand s.Cgi.Script.cost);
  check_bool "tiny output" true (s.Cgi.Script.cost.Cgi.Cost.output_bytes < 100)

let test_script_output_deterministic () =
  let s =
    Cgi.Script.make ~name:"/cgi-bin/q" (Cgi.Cost.make (Cgi.Cost.Fixed 1.))
  in
  let a = Cgi.Script.output s ~key:"GET /cgi-bin/q?x=1" in
  let b = Cgi.Script.output s ~key:"GET /cgi-bin/q?x=1" in
  check_string "same key same body" a b;
  let c = Cgi.Script.output s ~key:"GET /cgi-bin/q?x=2" in
  check_bool "different key different body" true (a <> c)

let test_script_output_sized () =
  let s =
    Cgi.Script.make ~name:"/cgi-bin/q" (Cgi.Cost.make (Cgi.Cost.Fixed 1.))
  in
  let body = Cgi.Script.output_sized s ~key:"k" ~bytes:10_000 in
  (* Approximately the requested size: payload + fixed wrapper. *)
  check_bool "sized" true
    (String.length body > 9_000 && String.length body < 11_000)

let test_script_output_tiny () =
  let s =
    Cgi.Script.make ~name:"/cgi-bin/q" (Cgi.Cost.make (Cgi.Cost.Fixed 1.))
  in
  let body = Cgi.Script.output_sized s ~key:"k" ~bytes:0 in
  check_bool "non-empty wrapper" true (String.length body > 0)

let test_script_defaults () =
  let s = Cgi.Script.make ~name:"/x" (Cgi.Cost.make (Cgi.Cost.Fixed 1.)) in
  check_bool "cacheable by default" true s.Cgi.Script.cacheable;
  check_bool "no ttl" true (s.Cgi.Script.ttl = None);
  check_float "no failures" 0. s.Cgi.Script.failure_rate

(* ------------------------------------------------------------------ *)
(* Deferred bodies against the renderer they defer *)

let count = Qcheck_count.or_default 200

(* Script names and keys: empty, short, any byte (non-ASCII included),
   long, and one fixed UTF-8 string with URI punctuation. *)
let gen_text =
  QCheck.Gen.(
    oneof
      [
        return "";
        string_size ~gen:printable (1 -- 20);
        string_size ~gen:char (1 -- 20);
        string_size ~gen:printable (200 -- 2_000);
        return "caf\xc3\xa9/\xe2\x82\xac?q=a&b=%20+\xff";
      ])

(* Around the 96-byte framing allowance, and two real sizes. *)
let gen_bytes =
  QCheck.Gen.(
    oneof
      [ return 0; 1 -- 95; return 96; return 97; return 8_192; return 524_288 ])

let prop_body_matches_reference =
  QCheck.Test.make ~name:"body renders the reference bytes" ~count
    (QCheck.make
       ~print:(fun (name, key, bytes) ->
         Printf.sprintf "name=%S key=%S bytes=%d" name key bytes)
       (QCheck.Gen.triple gen_text gen_text gen_bytes))
    (fun (name, key, bytes) ->
      let s =
        Cgi.Script.make ~name:("/" ^ name) (Cgi.Cost.make (Cgi.Cost.Fixed 1.))
      in
      let reference = Cgi.Script.output_sized s ~key ~bytes in
      let body = Cgi.Script.body s ~key ~bytes in
      Http.Body.length body = String.length reference
      && Http.Body.length body
         = 46 + String.length s.Cgi.Script.name + max 0 (bytes - 96)
      && Http.Body.to_string body = reference)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_resolve_script () =
  let r = Cgi.Registry.create () in
  let s = Cgi.Script.make ~name:"/cgi-bin/a" (Cgi.Cost.make (Cgi.Cost.Fixed 1.)) in
  Cgi.Registry.register r s;
  (match Cgi.Registry.resolve r "/cgi-bin/a" with
  | Some (Cgi.Registry.Cgi_script s') -> check_string "found" "/cgi-bin/a" s'.Cgi.Script.name
  | Some (Cgi.Registry.Static_file _) | None -> Alcotest.fail "expected script");
  check_bool "missing" true (Cgi.Registry.resolve r "/nope" = None)

let test_registry_resolve_file () =
  let r = Cgi.Registry.create () in
  Cgi.Registry.register_file r ~path:"/doc.html" ~bytes:500;
  match Cgi.Registry.resolve r "/doc.html" with
  | Some (Cgi.Registry.Static_file { bytes; path }) ->
      check_int "size" 500 bytes;
      check_string "path" "/doc.html" path
  | Some (Cgi.Registry.Cgi_script _) | None -> Alcotest.fail "expected file"

let test_registry_script_precedence () =
  (* A path registered both ways resolves as a script. *)
  let r = Cgi.Registry.create () in
  Cgi.Registry.register_file r ~path:"/both" ~bytes:1;
  Cgi.Registry.register r (Cgi.Script.make ~name:"/both" (Cgi.Cost.make (Cgi.Cost.Fixed 1.)));
  match Cgi.Registry.resolve r "/both" with
  | Some (Cgi.Registry.Cgi_script _) -> ()
  | Some (Cgi.Registry.Static_file _) | None -> Alcotest.fail "script wins"

let test_registry_reregister_replaces () =
  let r = Cgi.Registry.create () in
  let mk fe = Cgi.Script.make ~name:"/s" (Cgi.Cost.make ~fork_exec:fe (Cgi.Cost.Fixed 1.)) in
  Cgi.Registry.register r (mk 0.01);
  Cgi.Registry.register r (mk 0.05);
  match Cgi.Registry.find_script r "/s" with
  | Some s -> check_float "replaced" 0.05 s.Cgi.Script.cost.Cgi.Cost.fork_exec
  | None -> Alcotest.fail "missing"

let test_registry_listing () =
  let r = Cgi.Registry.create () in
  Cgi.Registry.register r (Cgi.Script.make ~name:"/b" (Cgi.Cost.make (Cgi.Cost.Fixed 1.)));
  Cgi.Registry.register r (Cgi.Script.make ~name:"/a" (Cgi.Cost.make (Cgi.Cost.Fixed 1.)));
  Cgi.Registry.register_file r ~path:"/f1" ~bytes:1;
  Cgi.Registry.register_file r ~path:"/f2" ~bytes:2;
  Alcotest.(check (list string)) "sorted scripts" [ "/a"; "/b" ]
    (List.map (fun s -> s.Cgi.Script.name) (Cgi.Registry.scripts r));
  check_int "files" 2 (Cgi.Registry.file_count r)

let test_registry_negative_file () =
  let r = Cgi.Registry.create () in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Registry.register_file: negative size") (fun () ->
      Cgi.Registry.register_file r ~path:"/f" ~bytes:(-1))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cgi"
    [
      ( "cost",
        [
          Alcotest.test_case "defaults" `Quick test_cost_defaults;
          Alcotest.test_case "validation" `Quick test_cost_validation;
          Alcotest.test_case "fixed demand" `Quick test_cost_fixed_demand;
          Alcotest.test_case "uniform demand" `Quick test_cost_uniform_demand;
          Alcotest.test_case "lognormal mean" `Quick test_cost_lognormal_mean;
          Alcotest.test_case "from-query replay demand" `Quick test_cost_from_query;
          Alcotest.test_case "xd ignored for fixed" `Quick test_cost_from_query_ignored_for_fixed;
          Alcotest.test_case "output bytes override" `Quick test_cost_output_bytes_for;
        ] );
      ( "script",
        [
          Alcotest.test_case "validation" `Quick test_script_make_validation;
          Alcotest.test_case "null CGI" `Quick test_script_null;
          Alcotest.test_case "deterministic output" `Quick test_script_output_deterministic;
          Alcotest.test_case "sized output" `Quick test_script_output_sized;
          Alcotest.test_case "tiny output" `Quick test_script_output_tiny;
          Alcotest.test_case "defaults" `Quick test_script_defaults;
        ] );
      qsuite "body-ref" [ prop_body_matches_reference ];
      ( "registry",
        [
          Alcotest.test_case "resolve script" `Quick test_registry_resolve_script;
          Alcotest.test_case "resolve file" `Quick test_registry_resolve_file;
          Alcotest.test_case "script precedence" `Quick test_registry_script_precedence;
          Alcotest.test_case "re-register replaces" `Quick test_registry_reregister_replaces;
          Alcotest.test_case "listing" `Quick test_registry_listing;
          Alcotest.test_case "negative file size" `Quick test_registry_negative_file;
        ] );
    ]
