(** Time-varying workload scenarios.

    The seed generators ({!Synthetic}, {!Webstone}) produce {e stationary}
    traces: the key popularity, request mix and client population are the
    same at the end of a replay as at the start. Real traffic is not — demand
    lurches onto a few hot keys (flash crowds), follows daily load curves
    (diurnal cycles), and arrives from client populations at very different
    network distances (geo tiers). A {!t} makes those regimes functions of
    {e virtual time}: it overlays a base trace with

    - a {b flash crowd} — from [fc_at] for [fc_duration] seconds a fraction
      [fc_fraction] of CGI traffic is re-pointed onto a small Zipf-skewed
      head of [fc_keys] crowd queries, then the fraction decays linearly to
      zero over [fc_decay] seconds;
    - a {b diurnal envelope} — a sinusoidal arrival-rate curve over the
      run, turned into per-request release times by quantile inversion of
      the cumulative rate (so the envelope integrates to exactly the
      trace's request count);
    - {b geo tiers} — client classes with distinct round-trip times, mapped
      deterministically onto client streams by weight; the runner wires each
      tier's extra one-way latency into the {!Sim.Net} client links and
      reports per-tier response samples and request counters.

    Scenarios are {e opt-in overlays}: a run with no scenario configured
    draws no scenario random numbers, adds no delays and rewrites no items,
    and is byte-identical to a build without this module. All scenario
    randomness comes from generators the caller seeds, so a fixed seed
    reproduces the same crowd redirections and release times exactly. *)

(** {1 Overlays} *)

type flash_crowd = {
  fc_at : float;  (** crowd onset (virtual s), [>= 0] *)
  fc_duration : float;  (** full-intensity window (s), [> 0] *)
  fc_decay : float;  (** linear decay back to baseline (s), [>= 0] *)
  fc_fraction : float;  (** peak fraction of CGI traffic redirected, [\[0,1\]] *)
  fc_keys : int;  (** size of the hot crowd-key head, [>= 1] *)
  fc_zipf_s : float;  (** popularity skew inside the head, [>= 0] *)
  fc_demand : float;  (** exec demand of a crowd query (s), [> 0] *)
  fc_out_bytes : int;  (** output size of a crowd query, [>= 0] *)
}

(** [flash_crowd ~at ~duration ()] builds a crowd spec; defaults:
    [decay = duration], [fraction = 0.8], [keys = 8], [zipf_s = 1.0],
    [demand = 1.0], [out_bytes = 4096]. *)
val flash_crowd :
  at:float ->
  duration:float ->
  ?decay:float ->
  ?fraction:float ->
  ?keys:int ->
  ?zipf_s:float ->
  ?demand:float ->
  ?out_bytes:int ->
  unit ->
  flash_crowd

(** Arrival-rate envelope, as a {e relative} rate curve over the run (only
    its shape matters — release times come from quantile inversion, so the
    total request count is the trace's, not the curve's integral). *)
type diurnal =
  | Sinusoid of { period : float; trough : float }
      (** rate(t) = (1+trough)/2 - (1-trough)/2 · cos(2πt/period): starts
          at the [trough] fraction of peak at t = 0, peaks mid-period.
          [period > 0], [trough] in [\[0,1\]]. *)

(** A client class: [weight] of the streams sit [rtt] seconds (round trip)
    from the cluster — each one-way client hop gains [rtt/2] on top of the
    base LAN latency. *)
type tier = { tier_name : string; rtt : float; weight : float }

val tier : name:string -> rtt:float -> weight:float -> tier

type t

(** [make ~duration ()] builds a scenario over the finite virtual-time
    horizon [\[0, duration)] with the given overlays (all optional; an
    overlay left out is simply absent — [make ~duration ()] alone is a
    valid, inert scenario). Raises [Invalid_argument] on a malformed
    overlay or a non-finite duration. *)
val make :
  duration:float ->
  ?flash:flash_crowd ->
  ?diurnal:diurnal ->
  ?tiers:tier list ->
  unit ->
  t

(** [validate t] re-checks every overlay (raises [Invalid_argument]);
    {!make} already calls it. *)
val validate : t -> unit

val duration : t -> float
val flash : t -> flash_crowd option
val diurnal : t -> diurnal option
val tiers : t -> tier array

(** {1 Phase schedule} *)

(** [phases t] tiles [\[0, duration\]] with named, non-overlapping,
    gap-free intervals [(name, start, stop)]: ["pre"], ["crowd"],
    ["decay"], ["post"] around a flash crowd (empty intervals dropped,
    ends clamped to the duration), or a single ["steady"] phase without
    one. Bench sweeps bucket per-phase latencies with this. *)
val phases : t -> (string * float * float) list

(** [phase_of t ~now] names the phase containing [now] (times past the end
    fall into the last phase). *)
val phase_of : t -> now:float -> string

(** {1 Flash crowd} *)

(** [flash_intensity t ~now] is the fraction of CGI traffic the crowd
    captures at [now]: [fc_fraction] inside the window, linearly decaying
    to [0.] across the decay tail, [0.] elsewhere (and always [0.] without
    a crowd overlay). *)
val flash_intensity : t -> now:float -> float

(** [rewrite t ~rng ~now item] applies the flash crowd to one trace item:
    with probability [flash_intensity t ~now], a CGI item is re-pointed to
    a Zipf-drawn crowd query (same id, [/cgi-bin/query] with the standard
    ["q"]/["xd"]/["xb"] replay args, ["q"] being ["crowd"] followed by
    the drawn rank, demand [fc_demand]). Returns [None] when the item
    passes through unchanged. Static files are never redirected, and no
    random numbers are drawn while the intensity is zero — so outside the
    crowd the reference stream is exactly the base trace's. *)
val rewrite : t -> rng:Sim.Rng.t -> now:float -> Trace.item -> Trace.item option

(** {1 Diurnal envelope} *)

(** [envelope_rate t ~now] is the relative arrival rate at [now] ([1.]
    when no diurnal overlay is configured). *)
val envelope_rate : t -> now:float -> float

(** [arrival_times t ~n] inverts the cumulative envelope into [n]
    nondecreasing release times in [\[0, duration)], one per trace item in
    global trace order ([\[||\]] when no diurnal overlay — the replay then
    stays purely closed-loop). The [i]-th time is the envelope quantile at
    [(i + 1/2)/n], so every prefix [\[0,t\]] contains the integral of the
    (normalised) envelope up to [t], within one request. *)
val arrival_times : t -> n:int -> float array

(** {1 Geo tiers} *)

val n_tiers : t -> int

(** [tier_of_stream t ~n_streams ~stream] assigns a client stream to a
    tier deterministically (no randomness): streams are cut into
    contiguous runs proportional to the tier weights, in tier order.
    Returns [0] when no tiers are configured. *)
val tier_of_stream : t -> n_streams:int -> stream:int -> int

(** [tier_extra_latency t i] is tier [i]'s extra one-way client-link
    latency, [rtt/2] ([0.] without tiers). *)
val tier_extra_latency : t -> int -> float

(** [tier_name t i] ([ "tier0" ]-style fallback without tiers). *)
val tier_name : t -> int -> string
