(* Tests for the HTTP substrate: methods, statuses, headers, URIs,
   request/response wire handling, cache keys. *)

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Meth / Status *)

let test_meth_roundtrip () =
  List.iter
    (fun m ->
      let s = Http.Meth.to_string m in
      match Http.Meth.of_string s with
      | Ok m' -> check_bool s true (Http.Meth.equal m m')
      | Error e -> Alcotest.fail e)
    [ Http.Meth.Get; Http.Meth.Head; Http.Meth.Post ]

let test_meth_case_sensitive () =
  check_bool "lowercase rejected" true
    (Result.is_error (Http.Meth.of_string "get"))

let test_meth_unknown () =
  check_bool "unknown" true (Result.is_error (Http.Meth.of_string "BREW"))

let test_status_codes () =
  check_int "ok" 200 (Http.Status.code Http.Status.Ok);
  check_int "404" 404 (Http.Status.code Http.Status.Not_found);
  check_string "reason" "Not Found" (Http.Status.reason Http.Status.Not_found)

(* ------------------------------------------------------------------ *)
(* Headers *)

let test_headers_case_insensitive () =
  let h = Http.Headers.add Http.Headers.empty "Content-Type" "text/html" in
  Alcotest.(check (option string)) "lc" (Some "text/html")
    (Http.Headers.get h "content-type");
  Alcotest.(check (option string)) "uc" (Some "text/html")
    (Http.Headers.get h "CONTENT-TYPE");
  check_bool "mem" true (Http.Headers.mem h "CoNtEnT-tYpE")

let test_headers_order_and_duplicates () =
  let h =
    Http.Headers.empty
    |> fun h -> Http.Headers.add h "X-A" "1"
    |> fun h -> Http.Headers.add h "X-B" "2"
    |> fun h -> Http.Headers.add h "X-A" "3"
  in
  Alcotest.(check (list string)) "all values" [ "1"; "3" ]
    (Http.Headers.get_all h "x-a");
  Alcotest.(check (option string)) "first wins" (Some "1") (Http.Headers.get h "X-A");
  check_int "length" 3 (Http.Headers.length h)

let test_headers_replace_remove () =
  let h = Http.Headers.of_list [ ("A", "1"); ("B", "2"); ("a", "3") ] in
  let h' = Http.Headers.replace h "A" "9" in
  Alcotest.(check (list string)) "replaced" [ "9" ] (Http.Headers.get_all h' "a");
  let h'' = Http.Headers.remove h "a" in
  check_bool "removed" false (Http.Headers.mem h'' "A")

let test_headers_content_length () =
  let h = Http.Headers.of_list [ ("Content-Length", " 42 ") ] in
  Alcotest.(check (option int)) "parsed" (Some 42) (Http.Headers.content_length h);
  let bad = Http.Headers.of_list [ ("Content-Length", "xyz") ] in
  Alcotest.(check (option int)) "malformed" None (Http.Headers.content_length bad)

(* ------------------------------------------------------------------ *)
(* Uri *)

let test_uri_parse_basic () =
  let u = ok_or_fail "parse" (Http.Uri.parse "/a/b?x=1&y=2") in
  check_string "path" "/a/b" u.Http.Uri.path;
  Alcotest.(check (list (pair string string)))
    "query"
    [ ("x", "1"); ("y", "2") ]
    u.Http.Uri.query

let test_uri_parse_no_query () =
  let u = ok_or_fail "parse" (Http.Uri.parse "/index.html") in
  check_string "path" "/index.html" u.Http.Uri.path;
  check_int "no params" 0 (List.length u.Http.Uri.query)

let test_uri_percent_decoding () =
  let u = ok_or_fail "parse" (Http.Uri.parse "/p%20q?k%3D=v%26w") in
  check_string "path decoded" "/p q" u.Http.Uri.path;
  Alcotest.(check (list (pair string string)))
    "query decoded"
    [ ("k=", "v&w") ]
    u.Http.Uri.query

let test_uri_plus_is_space () =
  let u = ok_or_fail "parse" (Http.Uri.parse "/s?q=hello+world") in
  Alcotest.(check (option string)) "plus" (Some "hello world")
    (Http.Uri.query_get u "q")

let test_uri_errors () =
  check_bool "empty" true (Result.is_error (Http.Uri.parse ""));
  check_bool "relative" true (Result.is_error (Http.Uri.parse "foo"));
  check_bool "bad escape" true (Result.is_error (Http.Uri.parse "/a%zz"));
  check_bool "truncated escape" true (Result.is_error (Http.Uri.parse "/a%2"))

let test_uri_roundtrip () =
  let cases = [ "/a/b?x=1&y=2"; "/p"; "/q?k=v"; "/deep/path/x?a=1&b=2&c=3" ] in
  List.iter
    (fun s ->
      let u = ok_or_fail "parse" (Http.Uri.parse s) in
      check_string ("roundtrip " ^ s) s (Http.Uri.to_string u))
    cases

let test_uri_encode_special () =
  let u = { Http.Uri.path = "/a b"; query = [ ("k&", "v=w") ] } in
  let s = Http.Uri.to_string u in
  let u' = ok_or_fail "reparse" (Http.Uri.parse s) in
  check_bool "roundtrip with escapes" true (Http.Uri.equal u u')

let test_uri_canonical_sorts () =
  let u = ok_or_fail "parse" (Http.Uri.parse "/s?b=2&a=1&b=1") in
  let c = Http.Uri.canonical u in
  Alcotest.(check (list (pair string string)))
    "sorted by key then value"
    [ ("a", "1"); ("b", "1"); ("b", "2") ]
    c.Http.Uri.query;
  check_string "path unchanged" "/s" c.Http.Uri.path

let prop_uri_decode_encode =
  QCheck.Test.make ~name:"percent_decode . percent_encode = id" ~count:300
    QCheck.(string_of_size Gen.(0 -- 30))
    (fun s ->
      match Http.Uri.percent_decode (Http.Uri.percent_encode s) with
      | Ok s' -> String.equal s s'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Request *)

let test_request_make_and_wire () =
  let r = Http.Request.get "/cgi-bin/query?q=maps" in
  let wire = Http.Request.to_wire r in
  check_bool "request line" true
    (String.length wire > 0
    && String.sub wire 0 (String.length "GET /cgi-bin/query?q=maps HTTP/1.0")
       = "GET /cgi-bin/query?q=maps HTTP/1.0")

let test_request_parse_roundtrip () =
  let r =
    Http.Request.make
      ~headers:(Http.Headers.of_list [ ("Host", "adl.ucsb.edu") ])
      ~body:"payload" Http.Meth.Post "/submit?x=1"
  in
  let r' = ok_or_fail "parse" (Http.Request.parse (Http.Request.to_wire r)) in
  check_bool "meth" true (Http.Meth.equal r.Http.Request.meth r'.Http.Request.meth);
  check_bool "uri" true (Http.Uri.equal r.Http.Request.uri r'.Http.Request.uri);
  check_string "body" "payload" r'.Http.Request.body;
  Alcotest.(check (option string)) "host header" (Some "adl.ucsb.edu")
    (Http.Headers.get r'.Http.Request.headers "host")

let test_request_parse_bare_lf () =
  let raw = "GET /x HTTP/1.0\nHost: h\n\n" in
  let r = ok_or_fail "parse" (Http.Request.parse raw) in
  check_string "path" "/x" r.Http.Request.uri.Http.Uri.path

let test_request_parse_errors () =
  check_bool "empty" true (Result.is_error (Http.Request.parse ""));
  check_bool "bad line" true (Result.is_error (Http.Request.parse "GETX\r\n\r\n"));
  check_bool "bad method" true
    (Result.is_error (Http.Request.parse "BREW /x HTTP/1.0\r\n\r\n"));
  check_bool "bad header" true
    (Result.is_error (Http.Request.parse "GET /x HTTP/1.0\r\nnocolon\r\n\r\n"))

let test_request_content_length_truncates () =
  let raw = "POST /x HTTP/1.0\r\nContent-Length: 3\r\n\r\nabcdef" in
  let r = ok_or_fail "parse" (Http.Request.parse raw) in
  check_string "body truncated" "abc" r.Http.Request.body

let test_request_make_invalid () =
  Alcotest.check_raises "relative target"
    (Invalid_argument "Request.make: request-URI must be absolute (start with '/')")
    (fun () -> ignore (Http.Request.make Http.Meth.Get "nope"))

let test_cache_key_param_order_insensitive () =
  let a = Http.Request.get "/cgi?x=1&y=2" in
  let b = Http.Request.get "/cgi?y=2&x=1" in
  check_string "same key" (Http.Request.cache_key a) (Http.Request.cache_key b)

let test_cache_key_distinguishes () =
  let a = Http.Request.get "/cgi?x=1" in
  let b = Http.Request.get "/cgi?x=2" in
  let c = Http.Request.make Http.Meth.Head "/cgi?x=1" in
  check_bool "different args" true
    (Http.Request.cache_key a <> Http.Request.cache_key b);
  check_bool "different method" true
    (Http.Request.cache_key a <> Http.Request.cache_key c)

let test_request_wire_size () =
  let r = Http.Request.get "/x" in
  check_int "wire size" (String.length (Http.Request.to_wire r))
    (Http.Request.wire_size r)

let prop_request_roundtrip =
  let gen_path =
    QCheck.Gen.(
      map
        (fun segs -> "/" ^ String.concat "/" segs)
        (list_size (1 -- 3) (string_size ~gen:(char_range 'a' 'z') (1 -- 8))))
  in
  let gen_query =
    QCheck.Gen.(
      list_size (0 -- 3)
        (pair
           (string_size ~gen:(char_range 'a' 'z') (1 -- 5))
           (string_size ~gen:(char_range '0' '9') (0 -- 5))))
  in
  let gen =
    QCheck.Gen.(
      map2
        (fun path query ->
          Http.Uri.to_string { Http.Uri.path; query })
        gen_path gen_query)
  in
  QCheck.Test.make ~name:"request parse . to_wire = id" ~count:200
    (QCheck.make gen) (fun target ->
      let r = Http.Request.get target in
      match Http.Request.parse (Http.Request.to_wire r) with
      | Ok r' ->
          Http.Uri.equal r.Http.Request.uri r'.Http.Request.uri
          && Http.Meth.equal r.Http.Request.meth r'.Http.Request.meth
      | Error _ -> false)

(* [wire_size] is computed from lengths, not by serialising; it must
   agree with [to_wire] whatever the headers, with or without a declared
   Content-Length (in any case), and for empty bodies. *)
let gen_headers =
  QCheck.Gen.(
    list_size (0 -- 4)
      (oneof
         [
           pair
             (oneofl [ "Content-Type"; "X-Cache"; "Host"; "Accept" ])
             (string_size ~gen:printable (0 -- 20));
           map
             (fun (name, n) -> (name, string_of_int n))
             (pair
                (oneofl [ "Content-Length"; "content-length"; "CONTENT-LENGTH" ])
                (0 -- 100_000));
         ]))

let gen_body =
  QCheck.Gen.(
    oneof [ return ""; string_size ~gen:printable (1 -- 10); string_size (0 -- 12_000) ])

let prop_request_wire_size =
  let gen =
    QCheck.Gen.(
      quad
        (oneofl Http.Meth.[ Get; Head; Post ])
        (oneofl [ "/"; "/x"; "/cgi-bin/q?b=2&a=1"; "/a%20b/c?q=x+y" ])
        gen_headers gen_body)
  in
  QCheck.Test.make ~name:"request wire_size = length of to_wire" ~count:500
    (QCheck.make gen) (fun (meth, target, headers, body) ->
      let r =
        Http.Request.make ~headers:(Http.Headers.of_list headers) ~body meth
          target
      in
      Http.Request.wire_size r = String.length (Http.Request.to_wire r))

let prop_response_wire_size =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl
           Http.Status.
             [ Ok; Not_found; Internal_server_error; Service_unavailable ])
        gen_headers gen_body)
  in
  QCheck.Test.make ~name:"response wire_size = length of to_wire" ~count:500
    (QCheck.make gen) (fun (status, headers, body) ->
      let r =
        Http.Response.make ~headers:(Http.Headers.of_list headers)
          ~body:(Http.Body.of_string body) status
      in
      Http.Response.wire_size r = String.length (Http.Response.to_wire r))

let count = Qcheck_count.or_default 500

(* The same law for a deferred body: a described string, or a CGI result
   of any size (rendered only by [to_wire]). *)
let prop_deferred_wire_size =
  let script =
    Cgi.Script.make ~name:"/cgi-bin/q" (Cgi.Cost.make (Cgi.Cost.Fixed 1.))
  in
  let gen_deferred =
    QCheck.Gen.(
      oneof
        [
          map
            (fun s -> Http.Body.deferred ~length:(String.length s) (fun () -> s))
            gen_body;
          map
            (fun (key, bytes) -> Cgi.Script.body script ~key ~bytes)
            (pair (string_size (0 -- 40)) (0 -- 20_000));
        ])
  in
  QCheck.Test.make ~name:"deferred wire_size = to_wire length" ~count
    (QCheck.make (QCheck.Gen.pair gen_headers gen_deferred))
    (fun (headers, body) ->
      let r =
        Http.Response.make ~headers:(Http.Headers.of_list headers) ~body
          Http.Status.Ok
      in
      Http.Response.wire_size r = String.length (Http.Response.to_wire r))

(* A cache key reads back as the request it names: its method and its
   canonical URI, whatever bytes the path and the query hold. *)
let prop_cache_key_roundtrip =
  let gen_text = QCheck.Gen.(string_size ~gen:printable (0 -- 6)) in
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Http.Meth.Get; Http.Meth.Head; Http.Meth.Post ])
        (map (fun s -> "/" ^ s) gen_text)
        (list_size (0 -- 3) (pair gen_text gen_text)))
  in
  QCheck.Test.make ~name:"of_cache_key . cache_key = canonical request"
    ~count (QCheck.make gen) (fun (meth, path, query) ->
      let r = Http.Request.of_uri meth { Http.Uri.path; query } in
      match Http.Request.of_cache_key (Http.Request.cache_key r) with
      | Some r' ->
          Http.Meth.equal meth r'.Http.Request.meth
          && Http.Uri.equal
               (Http.Uri.canonical r.Http.Request.uri)
               r'.Http.Request.uri
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Response *)

let test_response_ok () =
  let r = Http.Response.ok (Http.Body.of_string "<html/>") in
  check_int "200" 200 (Http.Status.code r.Http.Response.status);
  check_int "body size" 7 (Http.Body.length r.Http.Response.body)

let test_response_wire_adds_content_length () =
  let r = Http.Response.ok (Http.Body.of_string "abc") in
  check_string "wire"
    "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nContent-Length: 3\r\n\r\nabc"
    (Http.Response.to_wire r)

let test_response_error_body () =
  let r = Http.Response.error Http.Status.Not_found "/missing" in
  check_bool "mentions path" true
    (Http.Body.length r.Http.Response.body > 0
    &&
    let b = Http.Body.to_string r.Http.Response.body in
    let rec find i =
      i + 8 <= String.length b
      && (String.sub b i 8 = "/missing" || find (i + 1))
    in
    find 0)

let test_response_error_escapes () =
  let r = Http.Response.error Http.Status.Not_found "a&b<c>d\"e'f" in
  let b = Http.Body.to_string r.Http.Response.body in
  check_bool "escaped" true
    (contains b "<p>a&amp;b&lt;c&gt;d&quot;e&#39;f</p>");
  (* Text without markup characters is untouched. *)
  check_string "plain"
    "<html><body><h1>404 Not Found</h1><p>/cgi-bin/q x=1</p></body></html>"
    (Http.Body.to_string
       (Http.Response.error Http.Status.Not_found "/cgi-bin/q x=1")
         .Http.Response.body)

(* Sizing a deferred body never renders it; rendering checks the length
   it declared. *)
let test_deferred_body () =
  let renders = ref 0 in
  let body =
    Http.Body.deferred ~length:5 (fun () ->
        incr renders;
        "hello")
  in
  let r = Http.Response.ok body in
  check_int "body length" 5 (Http.Body.length r.Http.Response.body);
  ignore (Http.Response.wire_size r : int);
  check_int "not rendered" 0 !renders;
  check_string "rendered" "hello" (Http.Body.to_string body);
  check_int "once per read" 1 !renders;
  let liar = Http.Body.deferred ~length:4 (fun () -> "hello") in
  check_bool "length checked" true
    (try
       ignore (Http.Body.to_string liar : string);
       false
     with Invalid_argument _ -> true);
  check_bool "negative length" true
    (try
       ignore (Http.Body.deferred ~length:(-1) (fun () -> ""));
       false
     with Invalid_argument _ -> true)

let test_response_roundtrip () =
  let r =
    Http.Response.make
      ~headers:(Http.Headers.of_list [ ("X-Cache", "HIT") ])
      ~body:(Http.Body.of_string "data") Http.Status.Ok
  in
  check_string "wire"
    "HTTP/1.0 200 OK\r\nX-Cache: HIT\r\nContent-Length: 4\r\n\r\ndata"
    (Http.Response.to_wire r)

(* ------------------------------------------------------------------ *)

let prop_request_parse_total =
  Fuzz.total ~name:"request parse is total" ~count
    ~seeds:
      [
        "GET /cgi-bin/query?a=1&b=x%20y HTTP/1.0\r\nHost: swala\r\n\
         Accept: */*\r\n\r\n";
        "POST /cgi-bin/form HTTP/1.0\r\nContent-Length: 7\r\n\r\nx=1&y=2";
        "HEAD /index.html HTTP/1.0\n\n";
      ]
    ~punct:" \r\n:/?&=%+#0123456789" Http.Request.parse

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "http"
    [
      ( "meth-status",
        [
          Alcotest.test_case "method roundtrip" `Quick test_meth_roundtrip;
          Alcotest.test_case "method case sensitivity" `Quick test_meth_case_sensitive;
          Alcotest.test_case "unknown method" `Quick test_meth_unknown;
          Alcotest.test_case "status codes" `Quick test_status_codes;
        ] );
      ( "headers",
        [
          Alcotest.test_case "case-insensitive get" `Quick test_headers_case_insensitive;
          Alcotest.test_case "order and duplicates" `Quick test_headers_order_and_duplicates;
          Alcotest.test_case "replace and remove" `Quick test_headers_replace_remove;
          Alcotest.test_case "content-length" `Quick test_headers_content_length;
        ] );
      ( "uri",
        [
          Alcotest.test_case "basic parse" `Quick test_uri_parse_basic;
          Alcotest.test_case "no query" `Quick test_uri_parse_no_query;
          Alcotest.test_case "percent decoding" `Quick test_uri_percent_decoding;
          Alcotest.test_case "plus decodes to space" `Quick test_uri_plus_is_space;
          Alcotest.test_case "malformed inputs" `Quick test_uri_errors;
          Alcotest.test_case "roundtrip" `Quick test_uri_roundtrip;
          Alcotest.test_case "special chars roundtrip" `Quick test_uri_encode_special;
          Alcotest.test_case "canonical sorts query" `Quick test_uri_canonical_sorts;
        ] );
      qsuite "uri-props" [ prop_uri_decode_encode ];
      ( "request",
        [
          Alcotest.test_case "make + wire format" `Quick test_request_make_and_wire;
          Alcotest.test_case "parse roundtrip" `Quick test_request_parse_roundtrip;
          Alcotest.test_case "bare-LF tolerated" `Quick test_request_parse_bare_lf;
          Alcotest.test_case "parse errors" `Quick test_request_parse_errors;
          Alcotest.test_case "content-length truncates" `Quick
            test_request_content_length_truncates;
          Alcotest.test_case "invalid make raises" `Quick test_request_make_invalid;
          Alcotest.test_case "cache key ignores param order" `Quick
            test_cache_key_param_order_insensitive;
          Alcotest.test_case "cache key distinguishes" `Quick test_cache_key_distinguishes;
          Alcotest.test_case "wire size" `Quick test_request_wire_size;
        ] );
      qsuite "request-props"
        [
          prop_request_roundtrip;
          prop_request_wire_size;
          prop_cache_key_roundtrip;
          prop_request_parse_total;
        ];
      ( "response",
        [
          Alcotest.test_case "ok constructor" `Quick test_response_ok;
          Alcotest.test_case "wire adds content-length" `Quick
            test_response_wire_adds_content_length;
          Alcotest.test_case "error body" `Quick test_response_error_body;
          Alcotest.test_case "error body escapes markup" `Quick
            test_response_error_escapes;
          Alcotest.test_case "deferred body" `Quick test_deferred_body;
          Alcotest.test_case "roundtrip" `Quick test_response_roundtrip;
        ] );
      qsuite "resp-props" [ prop_response_wire_size; prop_deferred_wire_size ];
    ]
