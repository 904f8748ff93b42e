(* Online health monitor over the flight-recorder cadence.

   The sampler daemon closes a window every [interval] virtual seconds;
   between ticks the run feeds per-request response times in, and at each
   tick the cluster's cumulative signals are read. Detectors are
   edge-triggered with hysteresis: an incident is recorded when a
   condition first becomes true and the detector stays silent until the
   condition has cleared, so a sustained outage yields one record per
   excursion, not one per window. *)

type incident = {
  at : float;
  detector : string;
  value : float;
  threshold : float;
  message : string;
}

(* The detector thresholds, documented in health.mli. *)
let slo_objective = 0.95
let burn_threshold = 2.
let hit_drop = 0.25
let queue_depth_min = 8.
let queue_windows = 3
let stale_factor = 3.
let min_window_obs = 10
let warmup_windows = 3

type signals = {
  hits : float;  (* cumulative cache hits *)
  lookups : float;  (* cumulative cacheable lookups *)
  queue_depth : float;  (* instantaneous mean listen backlog *)
  stale_count : float;  (* cumulative stale-age observations *)
  stale_total : float;  (* cumulative stale-age seconds *)
}

type t = {
  slo_target : float option;
  interval : float;
  mutable incidents : incident list;  (* newest first *)
  mutable n_windows : int;
  (* current-window response stats *)
  mutable resp_n : int;
  mutable resp_bad : int;  (* responses over the SLO target *)
  mutable resp_max : float;
  (* previous tick's cumulative signals *)
  mutable prev : signals;
  mutable prev_depth : float;
  mutable growth_streak : int;
  (* trailing baselines (EWMA over judged windows) *)
  mutable hit_ewma : float;
  mutable hit_ewma_set : bool;
  mutable stale_ewma : float;
  mutable stale_ewma_set : bool;
  (* hysteresis: detectors currently in the fired state *)
  mutable active : string list;
}

let zero_signals =
  { hits = 0.; lookups = 0.; queue_depth = 0.; stale_count = 0.; stale_total = 0. }

let create ?slo_target ~interval () =
  if not (interval > 0.) then invalid_arg "Health.create: interval must be > 0";
  {
    slo_target;
    interval;
    incidents = [];
    n_windows = 0;
    resp_n = 0;
    resp_bad = 0;
    resp_max = 0.;
    prev = zero_signals;
    prev_depth = 0.;
    growth_streak = 0;
    hit_ewma = 0.;
    hit_ewma_set = false;
    stale_ewma = 0.;
    stale_ewma_set = false;
    active = [];
  }

let observe_response t dt =
  t.resp_n <- t.resp_n + 1;
  if dt > t.resp_max then t.resp_max <- dt;
  match t.slo_target with
  | Some target when dt > target -> t.resp_bad <- t.resp_bad + 1
  | _ -> ()

let is_active t d = List.exists (String.equal d) t.active

(* Edge-triggered: record only on the inactive -> active transition. *)
let update t ~now ~detector ~firing ~value ~threshold ~message =
  if firing then begin
    if not (is_active t detector) then begin
      t.active <- detector :: t.active;
      t.incidents <-
        { at = now; detector; value; threshold; message } :: t.incidents
    end
  end
  else t.active <- List.filter (fun d -> not (String.equal d detector)) t.active

let ewma_alpha = 0.3

let tick t ~now s =
  let warmed = t.n_windows >= warmup_windows in
  (* SLO burn rate: window miss fraction over the error budget. *)
  (match t.slo_target with
  | Some target when t.resp_n >= min_window_obs ->
      let miss = float_of_int t.resp_bad /. float_of_int t.resp_n in
      let budget = 1. -. slo_objective in
      let burn = miss /. budget in
      update t ~now ~detector:"slo_burn" ~firing:(burn >= burn_threshold)
        ~value:burn ~threshold:burn_threshold
        ~message:
          (Printf.sprintf
             "%.0f%% of %d responses over %gs target (burn %.1fx, max %.3fs)"
             (100. *. miss) t.resp_n target burn t.resp_max)
  | _ -> ());
  (* Hit-ratio collapse: windowed ratio vs trailing EWMA. *)
  let dlook = s.lookups -. t.prev.lookups in
  if dlook >= float_of_int min_window_obs then begin
    let h = (s.hits -. t.prev.hits) /. dlook in
    (if warmed && t.hit_ewma_set then
       let firing = t.hit_ewma -. h >= hit_drop in
       update t ~now ~detector:"hit_ratio_collapse" ~firing ~value:h
         ~threshold:(t.hit_ewma -. hit_drop)
         ~message:
           (Printf.sprintf "windowed hit ratio %.2f, trailing %.2f" h
              t.hit_ewma));
    (* Baselines only learn from healthy windows, so a long excursion
       does not drag the reference down to meet it. *)
    if not (is_active t "hit_ratio_collapse") then
      if t.hit_ewma_set then
        t.hit_ewma <- ((1. -. ewma_alpha) *. t.hit_ewma) +. (ewma_alpha *. h)
      else begin
        t.hit_ewma <- h;
        t.hit_ewma_set <- true
      end
  end;
  (* Queue growth: backlog rising for [queue_windows] consecutive ticks. *)
  if s.queue_depth > t.prev_depth +. 1e-9 then
    t.growth_streak <- t.growth_streak + 1
  else t.growth_streak <- 0;
  update t ~now ~detector:"queue_growth"
    ~firing:
      (t.growth_streak >= queue_windows && s.queue_depth >= queue_depth_min)
    ~value:s.queue_depth ~threshold:queue_depth_min
    ~message:
      (Printf.sprintf "listen backlog %.1f rising for %d windows"
         s.queue_depth t.growth_streak);
  t.prev_depth <- s.queue_depth;
  (* Staleness spike: windowed mean served age vs trailing mean. *)
  let dsc = s.stale_count -. t.prev.stale_count in
  if dsc >= float_of_int min_window_obs then begin
    let m = (s.stale_total -. t.prev.stale_total) /. dsc in
    (if warmed && t.stale_ewma_set && t.stale_ewma > 0. then
       update t ~now ~detector:"staleness_spike"
         ~firing:(m >= stale_factor *. t.stale_ewma) ~value:m
         ~threshold:(stale_factor *. t.stale_ewma)
         ~message:
           (Printf.sprintf "windowed staleness %.3fs, trailing %.3fs" m
              t.stale_ewma));
    if not (is_active t "staleness_spike") then
      if t.stale_ewma_set then
        t.stale_ewma <- ((1. -. ewma_alpha) *. t.stale_ewma) +. (ewma_alpha *. m)
      else begin
        t.stale_ewma <- m;
        t.stale_ewma_set <- true
      end
  end;
  t.prev <- s;
  t.n_windows <- t.n_windows + 1;
  t.resp_n <- 0;
  t.resp_bad <- 0;
  t.resp_max <- 0.

let incidents t = List.rev t.incidents
let n_incidents t = List.length t.incidents

let incident_to_json i =
  Json.Obj
    [
      ("at_s", Json.Float i.at);
      ("detector", Json.Str i.detector);
      ("value", Json.Float i.value);
      ("threshold", Json.Float i.threshold);
      ("message", Json.Str i.message);
    ]

let to_json t = Json.List (List.map incident_to_json (incidents t))

let pp_incident ppf i =
  Format.fprintf ppf "[%8.3fs] %-20s %s" i.at i.detector i.message
