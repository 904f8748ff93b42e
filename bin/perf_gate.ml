(* perf_gate: hold the line on simulator throughput.

   Compares a freshly measured BENCH_perf.json (written by
   [bench/main.exe micro]) against the committed baseline and fails when
   the measured metric falls below [min_ratio] x baseline. The ratio is
   deliberately generous in CI — shared runners are noisy — so the gate
   catches structural regressions (an accidental O(n) heap, a closure
   back on the hot path), not scheduling jitter.

   Usage:
     perf_gate --baseline FILE --current FILE [--min-ratio R] [--key K]...

   --key is repeatable; every key must pass. A key defaults to
   higher-is-better (current/baseline >= min-ratio); suffix it with
   ":lower" for lower-is-better metrics such as latencies, where the
   gate becomes baseline/current >= min-ratio.

   Defaults: min-ratio 0.5, keys [events_per_sec_wall].
   Exit status: 0 pass, 1 regression, 2 usage or parse error. A file that
   cannot be read or parsed as JSON, a missing key and a non-numeric
   value each end the gate with one line on stderr and status 2. *)

module J = Metrics.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf_gate: " ^ msg);
      exit 2)
    fmt

let read_json path =
  match J.of_file path with Ok v -> v | Error e -> fail "%s" e

let number_field ~path json key =
  match J.member key json with
  | None -> fail "%s: no field %S" path key
  | Some v -> (
      match J.to_float_opt v with
      | Some x -> x
      | None -> fail "%s: field %S is not a number" path key)

(* "gc_minor_words_per_event:lower" -> (that key, lower-is-better). *)
let parse_key spec =
  match String.index_opt spec ':' with
  | None -> (spec, false)
  | Some i -> (
      let name = String.sub spec 0 i in
      match String.sub spec (i + 1) (String.length spec - i - 1) with
      | "lower" -> (name, true)
      | "higher" -> (name, false)
      | dir ->
          fail "--key %s: unknown direction %S (expected lower or higher)" spec
            dir)

let () =
  let baseline = ref "" and current = ref "" in
  let min_ratio = ref 0.5 and keys = ref [] in
  let rec parse = function
    | "--baseline" :: v :: rest -> baseline := v; parse rest
    | "--current" :: v :: rest -> current := v; parse rest
    | "--min-ratio" :: v :: rest -> (
        match float_of_string_opt v with
        | Some r when r > 0. -> min_ratio := r; parse rest
        | _ -> fail "--min-ratio: bad value %S" v)
    | "--key" :: v :: rest -> keys := parse_key v :: !keys; parse rest
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf
          "perf_gate: unknown argument %S\n\
           usage: perf_gate --baseline FILE --current FILE [--min-ratio R] \
           [--key K[:lower]]...\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !baseline = "" || !current = "" then begin
    Printf.eprintf
      "usage: perf_gate --baseline FILE --current FILE [--min-ratio R] \
       [--key K[:lower]]...\n";
    exit 2
  end;
  let keys =
    match List.rev !keys with
    | [] -> [ ("events_per_sec_wall", false) ]
    | ks -> ks
  in
  let bjson = read_json !baseline and cjson = read_json !current in
  let failed = ref false in
  List.iter
    (fun (key, lower_better) ->
      let b = number_field ~path:!baseline bjson key in
      let c = number_field ~path:!current cjson key in
      let num, den = if lower_better then (b, c) else (c, b) in
      if den <= 0. then
        fail "%s %s is %g; nothing to gate on"
          (if lower_better then "current" else "baseline")
          key den;
      let ratio = num /. den in
      Printf.printf
        "perf_gate: %s baseline %g, current %g, ratio %.3f (min %.3f%s)\n" key
        b c ratio !min_ratio
        (if lower_better then ", lower is better" else "");
      if ratio < !min_ratio then failed := true)
    keys;
  if !failed then begin
    Printf.printf
      "perf_gate: FAIL — a gated metric regressed beyond tolerance; if this \
       is a deliberate tradeoff, re-run `bench/main.exe micro` and commit \
       the new BENCH_perf.json\n";
    exit 1
  end
  else print_endline "perf_gate: PASS"
