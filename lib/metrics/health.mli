(** Online health monitor: windowed SLO burn rate plus threshold and
    derivative detectors over the flight-recorder cadence.

    The server's sampler daemon closes a window every [interval] virtual
    seconds: between ticks the run feeds per-request response times in
    via {!observe_response}, and {!tick} reads the cluster's cumulative
    {!signals} and runs the detectors. Detectors are edge-triggered with
    hysteresis — one incident per excursion, recorded at the virtual time
    the condition first held, which is what lets tests correlate
    incidents against an injected {!Sim.Fault} plan. *)

type incident = {
  at : float;  (** virtual time of detection (window close) *)
  detector : string;
      (** ["slo_burn"], ["hit_ratio_collapse"], ["queue_growth"] or
          ["staleness_spike"] *)
  value : float;  (** observed value that tripped the detector *)
  threshold : float;  (** the configured limit it crossed *)
  message : string;  (** one-line human rendering *)
}

type config = {
  slo_target : float option;
      (** response-time target (s); [None] disables the burn detector *)
  slo_objective : float;
      (** fraction of requests that must meet the target, in (0,1) *)
  burn_threshold : float;
      (** fire when the window's miss fraction reaches this multiple of
          the error budget [1 - objective] *)
  hit_drop : float;
      (** fire when the windowed hit ratio falls this far (absolute)
          below its trailing mean *)
  queue_depth_min : float;  (** ignore backlog growth below this depth *)
  queue_windows : int;  (** consecutive growing windows before firing *)
  stale_factor : float;
      (** fire when windowed mean staleness reaches this multiple of its
          trailing mean *)
  min_window_obs : int;
      (** observations a window needs before it is judged at all *)
  warmup_windows : int;
      (** windows observed before baselines are trusted — keeps the cold
          start from reading as an incident *)
}

(** SLO burn off; objective 0.95, burn 2x, hit drop 0.25, queue depth 8
    over 3 windows, staleness 3x, 10 observations, 3 warmup windows. *)
val default_config : config

(** Cumulative cluster signals read at each tick; deltas between
    consecutive ticks give the windowed values. [queue_depth] is
    instantaneous. *)
type signals = {
  hits : float;
  lookups : float;
  queue_depth : float;
  stale_count : float;
  stale_total : float;
}

type t

val create : ?config:config -> interval:float -> unit -> t

(** [observe_response t dt] records one completed request's response time
    into the current window. Record-only: safe on the request path. *)
val observe_response : t -> float -> unit

(** [tick t ~now s] closes the current window and runs the detectors. *)
val tick : t -> now:float -> signals -> unit

(** Incidents in time order. *)
val incidents : t -> incident list

val n_incidents : t -> int

(** The metrics-JSON [incidents] section: a list of incident objects
    ({i at_s}, {i detector}, {i value}, {i threshold}, {i message}). *)
val to_json : t -> Json.t

val pp_incident : Format.formatter -> incident -> unit
