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

(** [create ?slo_target ~interval ()] monitors windows of [interval]
    virtual seconds. [slo_target] is the response-time target (s);
    without one the burn detector is off. The thresholds are fixed:

    - [slo_burn]: 95 % of responses must meet the target, and the
      detector fires when a window's miss fraction reaches 2x the error
      budget (0.05);
    - [hit_ratio_collapse]: the windowed hit ratio falls 0.25 (absolute)
      below its trailing mean;
    - [queue_growth]: the listen backlog, at depth 8 or more, has grown
      for 3 consecutive windows;
    - [staleness_spike]: the windowed mean staleness reaches 3x its
      trailing mean.

    The burn, hit-ratio and staleness detectors skip a window with
    fewer than 10 observations, and the last two wait 3 windows before
    trusting a baseline, so a cold start does not read as an incident.
    @raise Invalid_argument unless [interval > 0]. *)
val create : ?slo_target:float -> interval:float -> unit -> t

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
