(* Tests for the metrics library: summaries, samples, counters, tables. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_empty () =
  let s = Metrics.Summary.create () in
  check_int "count" 0 (Metrics.Summary.count s);
  check_float "mean" 0. (Metrics.Summary.mean s);
  check_float "variance" 0. (Metrics.Summary.variance s);
  Alcotest.check_raises "min empty" (Invalid_argument "Summary.min: empty")
    (fun () -> ignore (Metrics.Summary.min s))

let test_summary_basic () =
  let s = Metrics.Summary.create () in
  List.iter (Metrics.Summary.add s) [ 1.; 2.; 3.; 4. ];
  check_int "count" 4 (Metrics.Summary.count s);
  check_float "mean" 2.5 (Metrics.Summary.mean s);
  check_float "total" 10. (Metrics.Summary.total s);
  check_float "min" 1. (Metrics.Summary.min s);
  check_float "max" 4. (Metrics.Summary.max s);
  (* Unbiased sample variance of 1..4 is 5/3. *)
  check_float_eps 1e-9 "variance" (5. /. 3.) (Metrics.Summary.variance s)

let test_summary_single_value () =
  let s = Metrics.Summary.create () in
  Metrics.Summary.add s 7.;
  check_float "variance n=1" 0. (Metrics.Summary.variance s);
  check_float "stddev n=1" 0. (Metrics.Summary.stddev s)

let test_summary_merge_equals_combined () =
  let a = Metrics.Summary.create () and b = Metrics.Summary.create () in
  let all = Metrics.Summary.create () in
  List.iter
    (fun x ->
      Metrics.Summary.add all x;
      if x < 3. then Metrics.Summary.add a x else Metrics.Summary.add b x)
    [ 1.; 2.; 3.; 4.; 5.; 6. ];
  let m = Metrics.Summary.merge a b in
  check_int "count" (Metrics.Summary.count all) (Metrics.Summary.count m);
  check_float_eps 1e-9 "mean" (Metrics.Summary.mean all) (Metrics.Summary.mean m);
  check_float_eps 1e-9 "variance" (Metrics.Summary.variance all)
    (Metrics.Summary.variance m);
  check_float "min" 1. (Metrics.Summary.min m);
  check_float "max" 6. (Metrics.Summary.max m)

let test_summary_merge_with_empty () =
  let a = Metrics.Summary.create () and b = Metrics.Summary.create () in
  Metrics.Summary.add a 5.;
  let m1 = Metrics.Summary.merge a b in
  let m2 = Metrics.Summary.merge b a in
  check_float "a+empty" 5. (Metrics.Summary.mean m1);
  check_float "empty+a" 5. (Metrics.Summary.mean m2)

let test_summary_copy_independent () =
  let a = Metrics.Summary.create () in
  Metrics.Summary.add a 1.;
  let b = Metrics.Summary.copy a in
  Metrics.Summary.add b 3.;
  check_int "original untouched" 1 (Metrics.Summary.count a);
  check_int "copy grew" 2 (Metrics.Summary.count b)

let prop_summary_mean_matches_naive =
  QCheck.Test.make ~name:"welford mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Metrics.Summary.create () in
      List.iter (Metrics.Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Metrics.Summary.mean s -. naive) < 1e-6)

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
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:100
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
(* Timeseries *)

let test_timeseries_bucketing () =
  let ts = Metrics.Timeseries.create ~window:10. in
  Metrics.Timeseries.add ts ~time:1. 2.;
  Metrics.Timeseries.add ts ~time:9.9 4.;
  Metrics.Timeseries.add ts ~time:10. 10.;
  Metrics.Timeseries.add ts ~time:35. 1.;
  check_int "four windows" 4 (Metrics.Timeseries.n_buckets ts);
  let means = Metrics.Timeseries.bucket_means ts in
  check_float "window 0 mean" 3. means.(0);
  check_float "window 1 mean" 10. means.(1);
  check_bool "empty window is nan" true (Float.is_nan means.(2));
  check_float "window 3 mean" 1. means.(3);
  check_int "total count" 4 (Metrics.Summary.count (Metrics.Timeseries.total ts))

let test_timeseries_validation () =
  Alcotest.check_raises "bad window"
    (Invalid_argument "Timeseries.create: window must be > 0") (fun () ->
      ignore (Metrics.Timeseries.create ~window:0.));
  let ts = Metrics.Timeseries.create ~window:1. in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Timeseries.add: negative time") (fun () ->
      Metrics.Timeseries.add ts ~time:(-1.) 0.)

let test_timeseries_empty () =
  let ts = Metrics.Timeseries.create ~window:1. in
  check_int "no buckets" 0 (Metrics.Timeseries.n_buckets ts);
  check_int "empty total" 0 (Metrics.Summary.count (Metrics.Timeseries.total ts))

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
(* Timeseries gaps: a long stretch of empty windows must yield NaN means
   and zero-count summaries, not crash or invent zeros. *)

let test_timeseries_gap_windows () =
  let ts = Metrics.Timeseries.create ~window:1. in
  Metrics.Timeseries.add ts ~time:0.5 3.;
  Metrics.Timeseries.add ts ~time:6.5 7.;
  check_int "seven windows" 7 (Metrics.Timeseries.n_buckets ts);
  let means = Metrics.Timeseries.bucket_means ts in
  check_float "first mean" 3. means.(0);
  for i = 1 to 5 do
    check_bool
      (Printf.sprintf "window %d mean is nan" i)
      true
      (Float.is_nan means.(i))
  done;
  check_float "last mean" 7. means.(6);
  let buckets = Metrics.Timeseries.buckets ts in
  for i = 1 to 5 do
    check_int
      (Printf.sprintf "window %d empty" i)
      0
      (Metrics.Summary.count buckets.(i))
  done

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

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "metrics"
    [
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "mean/var/min/max" `Quick test_summary_basic;
          Alcotest.test_case "single value" `Quick test_summary_single_value;
          Alcotest.test_case "merge equals combined stream" `Quick
            test_summary_merge_equals_combined;
          Alcotest.test_case "merge with empty" `Quick test_summary_merge_with_empty;
          Alcotest.test_case "copy independence" `Quick test_summary_copy_independent;
        ] );
      qsuite "summary-props" [ prop_summary_mean_matches_naive ];
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
      ( "timeseries",
        [
          Alcotest.test_case "bucketing" `Quick test_timeseries_bucketing;
          Alcotest.test_case "validation" `Quick test_timeseries_validation;
          Alcotest.test_case "empty" `Quick test_timeseries_empty;
          Alcotest.test_case "gap windows" `Quick test_timeseries_gap_windows;
        ] );
    ]
