(* metrics_diff: behavioral regression gate over metrics JSON payloads.

   Structurally diffs two files written by `swala_sim run --metrics-out`
   (or the bench harness) and exits non-zero when they drift beyond the
   configured tolerances. The simulator is deterministic, so CI can diff
   a freshly generated payload against a committed baseline with a tight
   default tolerance: any behavioral change — a hit-ratio shift, a
   counter appearing or disappearing, a latency quantile moving — shows
   up as a named path, while benign float-printing noise is absorbed.

   Usage:
     metrics_diff --baseline FILE --current FILE
                  [--default-tol REL] [--tol PATH=REL]... [--ignore PATH]...

   Paths are dot-separated ("counters.requests", "utilisation.0",
   "response_s.p99"); a "*" segment matches any one key or index
   ("wait_histograms.*.count"). Values match when
   |a - b| <= max(1e-12, REL * max(|a|, |b|)). Structural differences
   (missing/extra keys, length or type mismatches) are always drift.

   Exit status: 0 no drift, 1 drift, 2 usage or parse error. *)

module J = Metrics.Json

let usage =
  "usage: metrics_diff --baseline FILE --current FILE [--default-tol REL] \
   [--tol PATH=REL]... [--ignore PATH]...\n"

let parse_json path =
  match J.of_file path with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "metrics_diff: %s\n" e;
      exit 2

(* Paths are built root-first as reversed segment lists; patterns are
   matched segment-wise with "*" as a single-segment wildcard. *)
let path_str rev_path = String.concat "." (List.rev rev_path)

let pattern_match pattern rev_path =
  let pat = String.split_on_char '.' pattern in
  let segs = List.rev rev_path in
  List.length pat = List.length segs
  && List.for_all2
       (fun p s -> String.equal p "*" || String.equal p s)
       pat segs

type opts = {
  default_tol : float;
  tols : (string * float) list;  (* (pattern, rel tolerance), CLI order *)
  ignores : string list;
}

let tol_for opts rev_path =
  match List.find_opt (fun (p, _) -> pattern_match p rev_path) opts.tols with
  | Some (_, t) -> t
  | None -> opts.default_tol

let ignored opts rev_path =
  List.exists (fun p -> pattern_match p rev_path) opts.ignores

let type_name = function
  | J.Null -> "null"
  | J.Bool _ -> "bool"
  | J.Int _ | J.Float _ -> "number"
  | J.Str _ -> "string"
  | J.List _ -> "array"
  | J.Obj _ -> "object"

let numbers_match tol a b =
  let d = Float.abs (a -. b) in
  d <= Float.max 1e-12 (tol *. Float.max (Float.abs a) (Float.abs b))

let drifts = ref 0

let drift rev_path fmt =
  incr drifts;
  Printf.ksprintf
    (fun msg -> Printf.printf "metrics_diff: %s: %s\n" (path_str rev_path) msg)
    fmt

let rec diff opts rev_path a b =
  if not (ignored opts rev_path) then
    match (a, b) with
    | J.Obj fa, J.Obj fb ->
        List.iter
          (fun (k, va) ->
            match List.assoc_opt k fb with
            | Some vb -> diff opts (k :: rev_path) va vb
            | None -> drift (k :: rev_path) "missing from current")
          fa;
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k fa) then
              drift (k :: rev_path) "missing from baseline")
          fb
    | J.List la, J.List lb ->
        let na = List.length la and nb = List.length lb in
        if na <> nb then
          drift rev_path "array length %d -> %d" na nb
        else
          List.iteri
            (fun i (va, vb) -> diff opts (string_of_int i :: rev_path) va vb)
            (List.combine la lb)
    | (J.Int _ | J.Float _), (J.Int _ | J.Float _) ->
        let va = Option.get (J.to_float_opt a)
        and vb = Option.get (J.to_float_opt b) in
        let tol = tol_for opts rev_path in
        if not (numbers_match tol va vb) then
          drift rev_path "%g -> %g (tolerance %g)" va vb tol
    | J.Null, J.Null -> ()
    | J.Bool ba, J.Bool bb ->
        if ba <> bb then drift rev_path "%b -> %b" ba bb
    | J.Str sa, J.Str sb ->
        if not (String.equal sa sb) then drift rev_path "%S -> %S" sa sb
    | _ -> drift rev_path "type %s -> %s" (type_name a) (type_name b)

let parse_tol spec =
  match String.index_opt spec '=' with
  | None ->
      Printf.eprintf "metrics_diff: --tol: expected PATH=REL, got %S\n" spec;
      exit 2
  | Some i -> (
      let path = String.sub spec 0 i
      and v = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt v with
      | Some t when t >= 0. -> (path, t)
      | _ ->
          Printf.eprintf "metrics_diff: --tol %s: bad tolerance %S\n" spec v;
          exit 2)

let () =
  let baseline = ref "" and current = ref "" in
  let default_tol = ref 0. and tols = ref [] and ignores = ref [] in
  let rec parse = function
    | "--baseline" :: v :: rest -> baseline := v; parse rest
    | "--current" :: v :: rest -> current := v; parse rest
    | "--default-tol" :: v :: rest -> (
        match float_of_string_opt v with
        | Some t when t >= 0. -> default_tol := t; parse rest
        | _ ->
            Printf.eprintf "metrics_diff: --default-tol: bad value %S\n" v;
            exit 2)
    | "--tol" :: v :: rest -> tols := parse_tol v :: !tols; parse rest
    | "--ignore" :: v :: rest -> ignores := v :: !ignores; parse rest
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf "metrics_diff: unknown argument %S\n%s" arg usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !baseline = "" || !current = "" then begin
    prerr_string usage;
    exit 2
  end;
  let opts =
    {
      default_tol = !default_tol;
      tols = List.rev !tols;
      ignores = List.rev !ignores;
    }
  in
  diff opts [] (parse_json !baseline) (parse_json !current);
  if !drifts > 0 then begin
    Printf.printf
      "metrics_diff: FAIL — %d path(s) drifted from %s; if the behavior \
       change is intended, regenerate and commit the baseline\n"
      !drifts !baseline;
    exit 1
  end
  else print_endline "metrics_diff: PASS"
