type flash_crowd = {
  fc_at : float;
  fc_duration : float;
  fc_decay : float;
  fc_fraction : float;
  fc_keys : int;
  fc_zipf_s : float;
  fc_demand : float;
  fc_out_bytes : int;
}

let flash_crowd ~at ~duration ?decay ?(fraction = 0.8) ?(keys = 8)
    ?(zipf_s = 1.0) ?(demand = 1.0) ?(out_bytes = 4096) () =
  {
    fc_at = at;
    fc_duration = duration;
    fc_decay = (match decay with Some d -> d | None -> duration);
    fc_fraction = fraction;
    fc_keys = keys;
    fc_zipf_s = zipf_s;
    fc_demand = demand;
    fc_out_bytes = out_bytes;
  }

type diurnal = Sinusoid of { period : float; trough : float }

type tier = { tier_name : string; rtt : float; weight : float }

let tier ~name ~rtt ~weight = { tier_name = name; rtt; weight }

type t = {
  duration : float;
  flash : flash_crowd option;
  diurnal : diurnal option;
  tiers : tier array;
  (* Precomputed at [make] so [rewrite] is draw-only on the replay path:
     the crowd's Zipf head, and each rank's query arguments. *)
  flash_zipf : Sim.Dist.Discrete.t option;
  flash_args : (string * string) list array;
}

let duration t = t.duration
let flash t = t.flash
let diurnal t = t.diurnal
let tiers t = t.tiers

let validate t =
  let check cond msg = if not cond then invalid_arg ("Scenario: " ^ msg) in
  check (t.duration > 0.) "duration must be positive";
  (match t.flash with
  | None -> ()
  | Some f ->
      check (f.fc_at >= 0.) "flash fc_at must be >= 0";
      check (f.fc_duration > 0.) "flash fc_duration must be positive";
      check (f.fc_decay >= 0.) "flash fc_decay must be >= 0";
      check
        (f.fc_fraction >= 0. && f.fc_fraction <= 1.)
        "flash fc_fraction must be in [0,1]";
      check (f.fc_keys >= 1) "flash fc_keys must be >= 1";
      check (f.fc_zipf_s >= 0.) "flash fc_zipf_s must be >= 0";
      check (f.fc_demand > 0.) "flash fc_demand must be positive";
      check (f.fc_out_bytes >= 0) "flash fc_out_bytes must be >= 0";
      check (f.fc_at < t.duration) "flash crowd must start inside the run");
  (match t.diurnal with
  | None -> ()
  | Some (Sinusoid { period; trough }) ->
      check (period > 0.) "diurnal period must be positive";
      check (trough >= 0. && trough <= 1.) "diurnal trough must be in [0,1]");
  check
    (Array.for_all (fun tr -> tr.weight > 0.) t.tiers)
    "tier weights must be positive";
  check (Array.for_all (fun tr -> tr.rtt >= 0.) t.tiers)
    "tier rtt must be >= 0";
  check
    (Array.for_all (fun tr -> tr.tier_name <> "") t.tiers)
    "tier names must be non-empty";
  let names = Array.to_list (Array.map (fun tr -> tr.tier_name) t.tiers) in
  check
    (List.length (List.sort_uniq compare names) = List.length names)
    "tier names must be distinct";
  check (Float.is_finite t.duration) "duration must be finite"

let make ~duration ?flash ?diurnal ?(tiers = []) () =
  let t =
    {
      duration;
      flash;
      diurnal;
      tiers = Array.of_list tiers;
      flash_zipf = None;
      flash_args = [||];
    }
  in
  (* First, so a bad head size is reported as a Scenario error. *)
  validate t;
  match flash with
  | None -> t
  | Some f ->
      let xd = Synthetic.demand_arg f.fc_demand
      and xb = string_of_int f.fc_out_bytes in
      {
        t with
        flash_zipf = Some (Sim.Dist.zipf ~n:f.fc_keys ~s:f.fc_zipf_s);
        flash_args =
          Array.init f.fc_keys (fun rank ->
              [ ("q", "crowd" ^ string_of_int rank); ("xd", xd); ("xb", xb) ]);
      }

(* ------------------------------------------------------------------ *)
(* Phase schedule *)

let phases t =
  match t.flash with
  | None -> [ ("steady", 0., t.duration) ]
  | Some f ->
      let clamp x = Stdlib.min x t.duration in
      let crowd_end = clamp (f.fc_at +. f.fc_duration) in
      let decay_end = clamp (f.fc_at +. f.fc_duration +. f.fc_decay) in
      let segs =
        [
          ("pre", 0., clamp f.fc_at);
          ("crowd", clamp f.fc_at, crowd_end);
          ("decay", crowd_end, decay_end);
          ("post", decay_end, t.duration);
        ]
      in
      List.filter (fun (_, a, b) -> b > a) segs

let phase_of t ~now =
  let ps = phases t in
  let rec go = function
    | [ (name, _, _) ] -> name
    | (name, _, stop) :: rest -> if now < stop then name else go rest
    | [] -> assert false
  in
  go ps

(* ------------------------------------------------------------------ *)
(* Flash crowd *)

let flash_intensity t ~now =
  match t.flash with
  | None -> 0.
  | Some f ->
      if now < f.fc_at then 0.
      else if now < f.fc_at +. f.fc_duration then f.fc_fraction
      else
        let into_decay = now -. f.fc_at -. f.fc_duration in
        if f.fc_decay > 0. && into_decay < f.fc_decay then
          f.fc_fraction *. (1. -. (into_decay /. f.fc_decay))
        else 0.

let rewrite t ~rng ~now item =
  let p = flash_intensity t ~now in
  if p <= 0. then None
  else
    match (item.Trace.kind, t.flash, t.flash_zipf) with
    | Trace.Cgi { out_bytes = _; _ }, Some f, Some zipf ->
        if Sim.Rng.float rng < p then begin
          let rank = Sim.Dist.Discrete.draw zipf rng in
          Some
            {
              Trace.id = item.Trace.id;
              kind =
                Trace.Cgi
                  {
                    script = "/cgi-bin/query";
                    args = t.flash_args.(rank);
                    demand = f.fc_demand;
                    out_bytes = f.fc_out_bytes;
                  };
            }
        end
        else None
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Diurnal envelope *)

let envelope_rate t ~now =
  match t.diurnal with
  | None -> 1.
  | Some (Sinusoid { period; trough }) ->
      ((1. +. trough) /. 2.)
      -. ((1. -. trough) /. 2. *. cos (2. *. Float.pi *. now /. period))

(* Cumulative envelope integral over [0, x], in closed form. *)
let cumulative t x =
  match t.diurnal with
  | None -> x
  | Some (Sinusoid { period; trough }) ->
      ((1. +. trough) /. 2. *. x)
      -. (1. -. trough) /. 2.
         *. (period /. (2. *. Float.pi))
         *. sin (2. *. Float.pi *. x /. period)

let arrival_times t ~n =
  match t.diurnal with
  | None -> [||]
  | Some _ ->
      if n <= 0 then [||]
      else begin
        let total = cumulative t t.duration in
        if total <= 0. then invalid_arg "Scenario: envelope integrates to 0";
        Array.init n (fun i ->
            let target = (float_of_int i +. 0.5) /. float_of_int n *. total in
            (* The cumulative is nondecreasing: bisect it. *)
            let lo = ref 0. and hi = ref t.duration in
            for _ = 1 to 50 do
              let mid = (!lo +. !hi) /. 2. in
              if cumulative t mid < target then lo := mid else hi := mid
            done;
            !lo)
      end

(* ------------------------------------------------------------------ *)
(* Geo tiers *)

let n_tiers t = Stdlib.max 1 (Array.length t.tiers)

let tier_of_stream t ~n_streams ~stream =
  let k = Array.length t.tiers in
  if k = 0 then 0
  else begin
    if n_streams < 1 then invalid_arg "Scenario: n_streams must be >= 1";
    if stream < 0 || stream >= n_streams then
      invalid_arg "Scenario: stream out of range";
    let total = Array.fold_left (fun acc tr -> acc +. tr.weight) 0. t.tiers in
    (* Contiguous stream runs, cut at the rounded cumulative weights; the
       last tier absorbs the rounding remainder. *)
    let rec go i cum =
      if i = k - 1 then i
      else
        let cum = cum +. t.tiers.(i).weight in
        let boundary =
          int_of_float (Float.round (cum /. total *. float_of_int n_streams))
        in
        if stream < boundary then i else go (i + 1) cum
    in
    go 0 0.
  end

let tier_extra_latency t i =
  if Array.length t.tiers = 0 then 0. else t.tiers.(i).rtt /. 2.

let tier_name t i =
  if Array.length t.tiers = 0 then Printf.sprintf "tier%d" i
  else t.tiers.(i).tier_name
