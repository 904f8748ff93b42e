(* Tests for the metrics library: samples, histograms, counters, tables. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let count = Qcheck_count.or_default 100

(* ------------------------------------------------------------------ *)
(* Sample *)

let test_sample_quantiles () =
  let s = Metrics.Sample.create () in
  List.iter (Metrics.Sample.add s) [ 4.; 1.; 3.; 2.; 5. ];
  check_float "median" 3. (Metrics.Sample.median s);
  check_float "q0" 1. (Metrics.Sample.quantile s 0.);
  check_float "q1" 5. (Metrics.Sample.quantile s 1.);
  check_float "q25" 2. (Metrics.Sample.quantile s 0.25);
  check_float "mean" 3. (Metrics.Sample.mean s)

let test_sample_interpolation () =
  let s = Metrics.Sample.create () in
  List.iter (Metrics.Sample.add s) [ 0.; 10. ];
  check_float "q50 interpolates" 5. (Metrics.Sample.quantile s 0.5)

let test_sample_add_after_query () =
  let s = Metrics.Sample.create () in
  Metrics.Sample.add s 2.;
  ignore (Metrics.Sample.median s);
  Metrics.Sample.add s 1.;
  check_float "resorted" 1. (Metrics.Sample.min s);
  check_float "median updated" 1.5 (Metrics.Sample.median s)

let test_sample_errors () =
  let s = Metrics.Sample.create () in
  Alcotest.check_raises "empty quantile"
    (Invalid_argument "Sample.quantile: empty") (fun () ->
      ignore (Metrics.Sample.quantile s 0.5));
  Metrics.Sample.add s 1.;
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Sample.quantile: q out of [0,1]") (fun () ->
      ignore (Metrics.Sample.quantile s 1.5))

let test_sample_values_sorted () =
  let s = Metrics.Sample.create () in
  List.iter (Metrics.Sample.add s) [ 3.; 1.; 2. ];
  Alcotest.(check (array (float 1e-9))) "sorted" [| 1.; 2.; 3. |]
    (Metrics.Sample.values s)

let prop_sample_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count
    QCheck.(list_of_size Gen.(2 -- 30) (float_bound_exclusive 100.))
    (fun xs ->
      QCheck.assume (List.length xs >= 2);
      let s = Metrics.Sample.create () in
      List.iter (Metrics.Sample.add s) xs;
      let qs = [ 0.; 0.25; 0.5; 0.75; 1.0 ] in
      let vals = List.map (Metrics.Sample.quantile s) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      mono vals)

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter_basic () =
  let c = Metrics.Counter.create () in
  check_int "untouched" 0 (Metrics.Counter.get c "x");
  Metrics.Counter.incr c "x";
  Metrics.Counter.incr c "x";
  Metrics.Counter.add c "y" 5;
  check_int "x" 2 (Metrics.Counter.get c "x");
  check_int "y" 5 (Metrics.Counter.get c "y");
  Alcotest.(check (list string)) "names" [ "x"; "y" ] (Metrics.Counter.names c)

let test_counter_merge () =
  let a = Metrics.Counter.create () and b = Metrics.Counter.create () in
  Metrics.Counter.add a "hits" 3;
  Metrics.Counter.add b "hits" 4;
  Metrics.Counter.add b "misses" 1;
  let m = Metrics.Counter.merge a b in
  check_int "summed" 7 (Metrics.Counter.get m "hits");
  check_int "only b" 1 (Metrics.Counter.get m "misses");
  (* merge must not alias its inputs *)
  Metrics.Counter.incr m "hits";
  check_int "a unchanged" 3 (Metrics.Counter.get a "hits")

let test_counter_negative_add () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.add c "x" (-2);
  check_int "negative allowed" (-2) (Metrics.Counter.get c "x")

(* ------------------------------------------------------------------ *)
(* Table *)

(* A two-column table of (name, value) string pairs. *)
let pairs rows =
  Metrics.Table.(of_rows ~title:"T" [ left "name" fst; right "v" snd ] rows)

let test_table_render () =
  let out = Metrics.Table.render (pairs [ ("alpha", "1"); ("b", "22") ]) in
  check_bool "has title" true (String.length out > 0 && String.sub out 0 1 = "T");
  (* Right-aligned numbers line up: " 1" and "22" both two wide. *)
  check_bool "right align" true
    (let lines = String.split_on_char '\n' out in
     List.exists (fun l -> l = "alpha   1") lines
     && List.exists (fun l -> l = "b      22") lines)

let test_table_formatters () =
  Alcotest.(check string) "float" "1.500" (Metrics.Table.fmt_f 1.5);
  Alcotest.(check string) "float decimals" "1.50" (Metrics.Table.fmt_f ~decimals:2 1.5);
  Alcotest.(check string) "pct" "12.5%" (Metrics.Table.fmt_pct 0.125);
  Alcotest.(check string) "int" "42" (Metrics.Table.fmt_i 42)

let test_table_rows_in_order () =
  let out =
    Metrics.Table.(
      render (of_rows ~title:"T" [ left "a" Fun.id ] [ "first"; "second" ]))
  in
  let find sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length out then -1
      else if String.sub out i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  check_bool "order preserved" true (find "first" < find "second")

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_table_to_csv () =
  Alcotest.(check string) "csv"
    "name,v\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n"
    (Metrics.Table.to_csv
       (pairs [ ("plain", "1"); ("with,comma", "quote\"inside") ]))

let test_table_csv_newline () =
  Alcotest.(check string) "embedded newline quoted"
    "name,v\n\"line1\nline2\",ok\n"
    (Metrics.Table.to_csv (pairs [ ("line1\nline2", "ok") ]))

(* ------------------------------------------------------------------ *)
(* Sample _opt accessors: total-order statistics over empty samples are
   None, never an exception or a made-up zero. *)

let test_sample_opt_empty () =
  let s = Metrics.Sample.create () in
  check_bool "quantile_opt" true (Metrics.Sample.quantile_opt s 0.5 = None);
  check_bool "median_opt" true (Metrics.Sample.median_opt s = None);
  check_bool "min_opt" true (Metrics.Sample.min_opt s = None);
  check_bool "max_opt" true (Metrics.Sample.max_opt s = None)

let test_sample_opt_filled () =
  let s = Metrics.Sample.create () in
  List.iter (Metrics.Sample.add s) [ 3.; 1.; 2. ];
  check_bool "median_opt" true (Metrics.Sample.median_opt s = Some 2.);
  check_bool "min_opt" true (Metrics.Sample.min_opt s = Some 1.);
  check_bool "max_opt" true (Metrics.Sample.max_opt s = Some 3.);
  check_bool "q0" true (Metrics.Sample.quantile_opt s 0. = Some 1.);
  check_bool "q1" true (Metrics.Sample.quantile_opt s 1. = Some 3.)

let test_sample_opt_range_checked () =
  let s = Metrics.Sample.create () in
  Metrics.Sample.add s 1.;
  Alcotest.check_raises "q > 1"
    (Invalid_argument "Sample.quantile_opt: q out of [0,1]") (fun () ->
      ignore (Metrics.Sample.quantile_opt s 1.5))

(* ------------------------------------------------------------------ *)
(* Fixed-bucket histograms *)

let test_histogram_basic () =
  let h = Metrics.Histogram.create ~bounds:[| 1.; 2.; 5. |] () in
  check_int "empty count" 0 (Metrics.Histogram.count h);
  check_float "empty mean" 0. (Metrics.Histogram.mean h);
  check_bool "empty quantile" true (Metrics.Histogram.quantile_opt h 0.5 = None);
  check_bool "empty min" true (Metrics.Histogram.min_opt h = None);
  List.iter (Metrics.Histogram.add h) [ 0.5; 1.5; 1.7; 3.0; 10.0 ];
  check_int "count" 5 (Metrics.Histogram.count h);
  check_float "total" 16.7 (Metrics.Histogram.total h);
  check_float "mean" (16.7 /. 5.) (Metrics.Histogram.mean h);
  check_bool "min exact" true (Metrics.Histogram.min_opt h = Some 0.5);
  check_bool "max exact" true (Metrics.Histogram.max_opt h = Some 10.0);
  match Metrics.Histogram.buckets h with
  | [ (b1, c1); (b2, c2); (b3, c3); (binf, c4) ] ->
      check_float "bound 1" 1. b1;
      check_int "bucket <=1" 1 c1;
      check_float "bound 2" 2. b2;
      check_int "bucket <=2" 2 c2;
      check_float "bound 5" 5. b3;
      check_int "bucket <=5" 1 c3;
      check_bool "overflow bound" true (binf = infinity);
      check_int "overflow count" 1 c4
  | other ->
      Alcotest.failf "expected 4 buckets, got %d" (List.length other)

let test_histogram_quantiles_clamped () =
  let h = Metrics.Histogram.create ~bounds:[| 1.; 2.; 5. |] () in
  (* All mass in one bucket: any quantile must stay inside [vmin, vmax]. *)
  List.iter (Metrics.Histogram.add h) [ 1.4; 1.5; 1.6 ];
  (match Metrics.Histogram.quantile_opt h 0. with
  | Some q -> check_bool "q0 >= vmin" true (q >= 1.4)
  | None -> Alcotest.fail "expected Some");
  (match Metrics.Histogram.quantile_opt h 1. with
  | Some q -> check_bool "q1 <= vmax" true (q <= 1.6)
  | None -> Alcotest.fail "expected Some");
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile_opt: q out of [0,1]") (fun () ->
      ignore (Metrics.Histogram.quantile_opt h 2.))

let test_histogram_merge () =
  let bounds = [| 1.; 10. |] in
  let a = Metrics.Histogram.create ~bounds () in
  let b = Metrics.Histogram.create ~bounds () in
  Metrics.Histogram.add a 0.5;
  Metrics.Histogram.add b 5.;
  Metrics.Histogram.add b 50.;
  let m = Metrics.Histogram.merge a b in
  check_int "merged count" 3 (Metrics.Histogram.count m);
  check_float "merged total" 55.5 (Metrics.Histogram.total m);
  check_bool "merged min" true (Metrics.Histogram.min_opt m = Some 0.5);
  check_bool "merged max" true (Metrics.Histogram.max_opt m = Some 50.);
  let c = Metrics.Histogram.create ~bounds:[| 2.; 20. |] () in
  Alcotest.check_raises "mismatched bounds"
    (Invalid_argument "Histogram.merge: bounds differ") (fun () ->
      ignore (Metrics.Histogram.merge a c))

let test_histogram_validation () =
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Histogram.create: bounds must be strictly increasing")
    (fun () -> ignore (Metrics.Histogram.create ~bounds:[| 1.; 1. |] ()))

(* ------------------------------------------------------------------ *)
(* Json *)

let prop_json_total =
  Fuzz.total ~name:"json of_string is total" ~count
    ~seeds:
      [
        {|{"a":[1,-2.5e3,true,false,null],"b":{"c":"d\"\\\u00e9\n"},"e":[]}|};
        {|[0.1, 2E-7, "x", {"k": [ ]}, -0, 12345678901234567890]|};
      ]
    ~punct:{|{}[],:"\-+.eEu0123456789 |} Metrics.Json.of_string

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "metrics"
    [
      ( "sample",
        [
          Alcotest.test_case "quantiles" `Quick test_sample_quantiles;
          Alcotest.test_case "interpolation" `Quick test_sample_interpolation;
          Alcotest.test_case "add after query resorts" `Quick test_sample_add_after_query;
          Alcotest.test_case "error cases" `Quick test_sample_errors;
          Alcotest.test_case "values sorted" `Quick test_sample_values_sorted;
          Alcotest.test_case "_opt on empty" `Quick test_sample_opt_empty;
          Alcotest.test_case "_opt on data" `Quick test_sample_opt_filled;
          Alcotest.test_case "_opt range checked" `Quick
            test_sample_opt_range_checked;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets and stats" `Quick test_histogram_basic;
          Alcotest.test_case "quantiles clamped" `Quick
            test_histogram_quantiles_clamped;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "bounds validated" `Quick
            test_histogram_validation;
        ] );
      qsuite "sample-props" [ prop_sample_quantile_monotone ];
      ( "counter",
        [
          Alcotest.test_case "incr/add/get/names" `Quick test_counter_basic;
          Alcotest.test_case "merge" `Quick test_counter_merge;
          Alcotest.test_case "negative add" `Quick test_counter_negative_add;
        ] );
      ( "table",
        [
          Alcotest.test_case "render and alignment" `Quick test_table_render;
          Alcotest.test_case "formatters" `Quick test_table_formatters;
          Alcotest.test_case "row order" `Quick test_table_rows_in_order;
          Alcotest.test_case "csv export" `Quick test_table_to_csv;
          Alcotest.test_case "csv newline quoting" `Quick
            test_table_csv_newline;
        ] );
      qsuite "json-props" [ prop_json_total ];
    ]
