(* QCheck_alcotest ignores QCHECK_COUNT, so the long-iteration CI job's
   knob is read here, once for every property suite. A positive value
   replaces the suite's default count; an unset, malformed or
   non-positive one keeps it. *)
let or_default default =
  match Option.bind (Sys.getenv_opt "QCHECK_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> default
