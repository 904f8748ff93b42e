(* Plain-text rendering of the flight recorder's output from a
   metrics-JSON payload containing its exported sections. The [swala_sim]
   CLI prints it after a telemetry run (from the run's own payload) and
   from a saved file in the [report] subcommand, so both print the same
   tables. *)

module J = Metrics.Json

(* One probe as read back from the payload. *)
type series_view = {
  sv_name : string;
  sv_kind : string;
  sv_width : float;
  sv_values : float array;  (* bucket values in time order; nan = empty *)
}

(* ------------------------------------------------------------------ *)
(* Sparklines: pure-ASCII level chars, one per bucket, space for empty
   buckets. A flat series renders at the lowest level rather than
   claiming a fake dynamic range. *)

let spark_levels = " .:-=+*#%@"

let sparkline values =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        if v < !lo then lo := v;
        if v > !hi then hi := v
      end)
    values;
  let n_levels = String.length spark_levels - 1 in
  let buf = Buffer.create (Array.length values) in
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then Buffer.add_char buf ' '
      else if !hi <= !lo then Buffer.add_char buf spark_levels.[1]
      else begin
        let frac = (v -. !lo) /. (!hi -. !lo) in
        let level = 1 + int_of_float (frac *. float_of_int (n_levels - 1)) in
        let level = Stdlib.min n_levels (Stdlib.max 1 level) in
        Buffer.add_char buf spark_levels.[level]
      end)
    values;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Tables *)

let fmt_v v = if Float.is_finite v then Printf.sprintf "%.4g" v else "-"

(* Statistics over a probe's non-empty buckets; nan when it has none. *)
type summary = { n : int; mean : float; lo : float; hi : float; last : float }

let summarize values =
  let n = ref 0
  and sum = ref 0.
  and lo = ref infinity
  and hi = ref neg_infinity
  and last = ref Float.nan in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        incr n;
        sum := !sum +. v;
        if v < !lo then lo := v;
        if v > !hi then hi := v;
        last := v
      end)
    values;
  if !n = 0 then
    { n = 0; mean = Float.nan; lo = Float.nan; hi = Float.nan; last = !last }
  else
    { n = !n; mean = !sum /. float_of_int !n; lo = !lo; hi = !hi; last = !last }

let timelines_table ~title views =
  Metrics.Table.(
    of_rows ~title
      [
        left "series" (fun (sv, _) -> sv.sv_name);
        left "kind" (fun (sv, _) -> sv.sv_kind);
        right "n" (fun (_, st) -> fmt_i st.n);
        right "mean" (fun (_, st) -> fmt_v st.mean);
        right "min" (fun (_, st) -> fmt_v st.lo);
        right "max" (fun (_, st) -> fmt_v st.hi);
        right "last" (fun (_, st) -> fmt_v st.last);
        left "timeline" (fun (sv, _) -> sparkline sv.sv_values);
      ]
      (List.map (fun sv -> (sv, summarize sv.sv_values)) views))

let incidents_table incidents =
  let module H = Metrics.Health in
  Metrics.Table.(
    of_rows
      ~title:(Printf.sprintf "Incidents (%d)" (List.length incidents))
      [
        right "t" (fun i -> Printf.sprintf "%.3fs" i.H.at);
        left "detector" (fun i -> i.H.detector);
        right "value" (fun i -> fmt_v i.H.value);
        right "threshold" (fun i -> fmt_v i.H.threshold);
        left "message" (fun i -> i.H.message);
      ]
      incidents)

(* ------------------------------------------------------------------ *)
(* Reading the payload back *)

let float_of_json v = Option.value ~default:Float.nan (J.to_float_opt v)

let views_of_json payload =
  match J.member "timelines" payload with
  | None -> None
  | Some tl ->
      let series = Option.value ~default:J.Null (J.member "series" tl) in
      let view name =
        let s = Option.value ~default:J.Null (J.member name series) in
        let kind =
          match J.member "kind" s with Some (J.Str k) -> k | _ -> "?"
        in
        let width =
          match J.member "width_s" s with
          | Some v -> float_of_json v
          | None -> Float.nan
        in
        let values =
          match J.member "points" s with
          | Some (J.List pts) ->
              Array.of_list
                (List.map
                   (fun p ->
                     match J.member "v" p with
                     | Some v -> float_of_json v
                     | None -> Float.nan)
                   pts)
          | _ -> [||]
        in
        { sv_name = name; sv_kind = kind; sv_width = width; sv_values = values }
      in
      Some (List.map view (J.keys series))

let incidents_of_json payload =
  match J.member "incidents" payload with
  | Some (J.List items) ->
      Some
        (List.map
           (fun i ->
             {
               Metrics.Health.at =
                 (match J.member "at_s" i with
                 | Some v -> float_of_json v
                 | None -> Float.nan);
               detector =
                 (match J.member "detector" i with
                 | Some (J.Str d) -> d
                 | _ -> "?");
               value =
                 (match J.member "value" i with
                 | Some v -> float_of_json v
                 | None -> Float.nan);
               threshold =
                 (match J.member "threshold" i with
                 | Some v -> float_of_json v
                 | None -> Float.nan);
               message =
                 (match J.member "message" i with
                 | Some (J.Str m) -> m
                 | _ -> "");
             })
           items)
  | Some _ | None -> None

let render_json_report payload =
  let buf = Buffer.create 4096 in
  (match views_of_json payload with
  | None -> ()
  | Some views ->
      let samples =
        match
          Option.bind (J.member "timelines" payload) (J.member "samples")
        with
        | Some (J.Int n) -> n
        | _ -> 0
      in
      let width = match views with [] -> 0. | sv :: _ -> sv.sv_width in
      let title =
        Printf.sprintf "Timelines (%d samples, bucket %gs)" samples width
      in
      Buffer.add_string buf
        (Metrics.Table.render (timelines_table ~title views));
      Buffer.add_char buf '\n');
  (match incidents_of_json payload with
  | None -> ()
  | Some incidents ->
      Buffer.add_string buf (Metrics.Table.render (incidents_table incidents));
      Buffer.add_char buf '\n');
  if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
