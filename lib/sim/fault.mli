(** Deterministic fault injection for the simulated cluster.

    A {!profile} describes the faults an experiment wants — per-link message
    loss, network partitions and per-node crash/restart behaviour — and
    {!create} instantiates it into a {!t} (a {e fault plan}) from a seeded
    {!Rng.t}. Everything stochastic is drawn from that generator, so the
    same seed and profile always produce the same fault trace: the same
    messages dropped and the same crash and restart instants.

    The plan is consulted by {!Net.send} (via [?fault] at {!Net.create})
    for every inter-host message, and by the server layer to schedule node
    crashes and restarts. A profile in which every rate is zero and no
    schedule is given is {e free}: no random numbers are drawn and every
    message is delivered exactly as without a plan, so a zero-fault run is
    byte-identical to a run with no plan at all. *)

(** {1 Profiles} *)

(** Stochastic crash behaviour of one node: up-times are exponential with
    mean [mtbf], downtimes exponential with mean [mttr] (both [> 0]). *)
type node_profile = {
  mtbf : float;  (** mean time between failures (s) *)
  mttr : float;  (** mean time to repair (s) *)
}

(** A crash/restart schedule: [(down_at, up_at)] intervals during which the
    node is dead, in increasing time order, non-overlapping,
    with [0 < down_at < up_at]. *)
type schedule = (float * float) list

(** A named time-varying network partition: over [\[cut_at, heal_at)] the
    endpoint set is split into [groups], and every message between
    endpoints of different groups is dropped. Endpoints not listed in any
    group (including client endpoints) form one implicit extra group, so a
    two-group split of a 4-node cluster is written [\[\[0;1\];\[2;3\]\]] and
    never cuts clients off the front end (client traffic uses the
    un-faulted [transfer] path anyway). Groups must be disjoint; several
    partitions may overlap in time and compose — a message is dropped if
    {e any} active partition separates its endpoints. *)
type partition = {
  pname : string;  (** label for traces and sweep tables *)
  groups : int list list;  (** disjoint, non-empty endpoint groups *)
  cut_at : float;  (** the split starts (s), [>= 0] *)
  heal_at : float;  (** the split heals (s), [> cut_at] *)
}

(** Rolling membership churn: a sustained cluster-wide stream of
    leave/rejoin events at [churn_rate] events per second, dealt
    round-robin over the nodes so membership keeps turning over instead
    of failing in one burst — the regime that exercises shard handoff and
    anti-entropy continuously. Each leave lasts [churn_downtime] seconds.
    With [churn_poisson] (the default) both the inter-event gaps and the
    downtimes are exponential with those means; without it they are fixed,
    giving a strictly periodic rolling restart. Churn composes with
    [node]/[node_schedules]: the downtime intervals are unioned per
    node. *)
type churn = {
  churn_rate : float;  (** leave events per second, cluster-wide, [> 0] *)
  churn_downtime : float;  (** (mean) downtime per leave (s), [> 0] *)
  churn_poisson : bool;  (** exponential gaps/downtimes vs. fixed period *)
}

(** [churn ()] builds a churn spec; defaults: [rate = 0.1] (one leave
    every 10 s somewhere in the cluster), [downtime = 2 s],
    [poisson = true]. *)
val churn : ?rate:float -> ?downtime:float -> ?poisson:bool -> unit -> churn

(** What an experiment asks for. [drop] is the probability that a
    message between any two distinct endpoints is silently discarded. [node], when set, gives every node a stochastic crash
    schedule generated over [\[0, horizon)]; [node_schedules] pins explicit
    schedules for individual nodes instead (useful for deterministic
    tests), taking precedence over [node]. [partitions] lists the
    time-varying splits; they compose with [drop] (a message surviving
    every active partition may still be dropped). [churn], when set, adds the rolling leave/rejoin stream on
    top of whatever the other crash sources produce. *)
type profile = {
  drop : float;  (** per-link drop probability, in [\[0,1\]] *)
  node : node_profile option;
  node_schedules : (int * schedule) list;
  partitions : partition list;
  churn : churn option;
  horizon : float;  (** crash schedules are generated within [\[0, horizon)] *)
}

(** [none] is [make ()], the empty profile: reliable links, no crashes. *)
val none : profile

(** [make ?drop ?node ?node_schedules ?partitions ?churn ?horizon ()]
    builds a profile; defaults are the fields of {!none} ([horizon]
    defaults to [3600.]). *)
val make :
  ?drop:float ->
  ?node:node_profile ->
  ?node_schedules:(int * schedule) list ->
  ?partitions:partition list ->
  ?churn:churn ->
  ?horizon:float ->
  unit ->
  profile

(** [is_lossy p] is [true] when [p] can make a message or a node disappear
    (some drop probability is positive, or some crash behaviour/schedule is
    present). Lossy profiles require a fetch timeout at the server layer,
    or a lost reply would wedge a request thread forever. *)
val is_lossy : profile -> bool

(** [validate p] raises [Invalid_argument] unless the drop probability is
    in [\[0,1\]], every mean and the horizon are positive where required,
    every explicit schedule is well-formed (ordered, non-overlapping,
    strictly positive times), the horizon is finite, and the mean step of
    each generated schedule ([mtbf + mttr], or [1 / churn_rate]) still
    advances a clock that has reached the horizon. *)
val validate : profile -> unit

(** {1 Plans} *)

(** The fate of one message, decided at send time. *)
type action =
  | Deliver  (** deliver normally *)
  | Drop  (** silently discard *)

type t
(** An instantiated fault plan with its own fault-trace counters. *)

(** [create p ~rng ~nodes] validates [p] and instantiates it. [nodes] is
    the number of crashable endpoints (endpoint ids [0 .. nodes-1]; higher
    ids — client endpoints — never crash). Crash schedules are derived from
    per-node splits of [rng] in node order (then one further split drives
    the churn stream, taken only when churn is configured), and the
    remainder of [rng] drives per-message draws, so schedules depend only
    on the seed while message fates additionally depend on the
    (deterministic) traffic. *)
val create : profile -> rng:Rng.t -> nodes:int -> t

(** [action t ~src ~dst ~now] decides the fate of a message sent from
    endpoint [src] to endpoint [dst] at time [now]: [Drop] if either
    endpoint is down or an active partition separates them, otherwise the
    link's stochastic fate. Draws no random numbers when [drop] is zero
    (down-node and partition checks are deterministic); counts every
    drop. *)
val action : t -> src:int -> dst:int -> now:float -> action

(** [node_down t ~node ~now] is [true] while [node] is inside one of its
    crash intervals. Always [false] for endpoints [>= nodes]. *)
val node_down : t -> node:int -> now:float -> bool

(** [schedule t ~node] is [node]'s crash/restart schedule (empty when the
    node never crashes). *)
val schedule : t -> node:int -> schedule

(** [partitioned t ~src ~dst ~now] is [true] while some partition active at
    [now] places [src] and [dst] in different groups. Draws nothing. *)
val partitioned : t -> src:int -> dst:int -> now:float -> bool

(** [partitions t] is the plan's partition list, in profile order — the
    server layer schedules heal events from the [heal_at] instants. *)
val partitions : t -> partition list

(** {1 Fault-trace counters} *)

(** [drops t] counts messages discarded by the plan, whether by link loss
    or because an endpoint was down. *)
val drops : t -> int

(** [drops_down t] counts only the discards due to a down endpoint. *)
val drops_down : t -> int

(** [drops_partition t] counts only the discards due to an active
    partition separating the endpoints. *)
val drops_partition : t -> int

(** [drops_link t] counts only the stochastic per-link discards;
    [drops t = drops_down t + drops_partition t + drops_link t] always. *)
val drops_link : t -> int
