(** The flight recorder: a {!Metrics.Registry} of probes over a running
    cluster (cluster signals, per-node utilisation, engine self-telemetry)
    plus a {!Metrics.Health} monitor, both driven by one sampler daemon on
    the telemetry cadence. {!Cluster_runner} creates one when
    [Config.telemetry_interval] is set, feeds it every response time and
    reads it after the run.

    Probes are pure reads of state the cluster already maintains, so
    sampling perturbs no simulated quantity; the sampler does add engine
    events, which is why the recorder is opt-in. A run without one is
    byte-identical to a build without this module. *)

type t

(** [create engine cluster cfg ~interval] registers the probe set over
    [cluster] and spawns the sampler on [engine], which wakes every
    [interval] simulated seconds. The health monitor takes its SLO from
    [cfg]. Call it just before {!Server.start}: the sampler must be the
    first process spawned, since spawn order breaks same-instant ties. *)
val create :
  Sim.Engine.t -> Server.cluster -> Config.t -> interval:float -> t

(** [stop t] lets the sampler exit at its next wake-up; call it with
    {!Server.stop}. Idempotent. *)
val stop : t -> unit

(** [observe_response t dt] feeds one completed request's response time
    into the [response] probe and the health monitor's SLO window. *)
val observe_response : t -> float -> unit

(** The probe timelines, for the ["timelines"] JSON section and the CSV
    export. *)
val registry : t -> Metrics.Registry.t

(** The online health monitor, for the ["incidents"] JSON section. *)
val health : t -> Metrics.Health.t
