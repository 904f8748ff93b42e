(** Deterministic discrete-event simulation engine.

    Simulated threads ("processes") are ordinary OCaml functions executed
    under an effect handler. A process suspends by performing one of the
    engine's effects ({!delay}, {!suspend}, or a synchronisation primitive
    built on them) and the engine resumes it later by scheduling its captured
    continuation as an event. Events fire in (time, sequence) order, so runs
    are fully deterministic.

    Events that are due at the current time and have no {!handle} — a
    {!resume}, a {!delay} that ends now (such as {!yield}), {!spawn} and
    {!spawn_child} — wait in a FIFO lane instead of the timed heap. The
    lane is an implementation detail: [run] merges it with the heap in
    (time, sequence) order, and every count below includes it.

    All per-process operations ({!delay}, {!now}, {!spawn_child}, {!suspend},
    {!self_engine}) must be called from inside a process started with
    {!spawn}; calling them elsewhere raises [Not_in_process]. ({!now} and
    {!self_engine} additionally work from bare event actions, since the
    engine they belong to is unambiguous while {!run} is active.)

    Engines are single-domain values: one engine must only ever be touched
    from the domain that runs it. Distinct engines in distinct domains are
    fully independent — that is what {!Sweep} exploits. *)

type t
(** An engine instance: virtual clock plus event queue. *)

type handle
(** A scheduled event, usable with {!cancel}. *)

exception Not_in_process
(** Raised when a process-only operation is performed outside any process. *)

exception Deadlock of string
(** Raised by {!run} when [detect_deadlock] is set and the queue drains while
    suspended processes remain. *)

val create : unit -> t

(** [current_time t] is the engine clock (also see {!now} from inside a
    process). Starts at [0.]. *)
val current_time : t -> float

(** [schedule_at t time f] queues [f] to run at absolute [time]. Events
    scheduled for the past raise [Invalid_argument]. *)
val schedule_at : t -> float -> (unit -> unit) -> handle

(** [schedule_after t dt f] queues [f] at [current_time t +. dt], [dt >= 0]. *)
val schedule_after : t -> float -> (unit -> unit) -> handle

(** [cancel h] prevents a pending event from firing; idempotent, and a no-op
    if the event already fired. Cancelled events are dropped lazily; once
    they outnumber live ones the queue is compacted in one O(n) sweep, so
    cancel-heavy workloads (CPU reschedules, timeouts) cannot bloat the
    heap. *)
val cancel : handle -> unit

(** [no_event] is a handle that was never scheduled: cancelling it does
    nothing. It initialises handle-holding fields without an [option]. *)
val no_event : handle

(** [spawn t f] registers [f] as a new process starting at the current time.
    May be called from inside or outside a process. *)
val spawn : t -> (unit -> unit) -> unit

(** [run ?until ?detect_deadlock t] executes events until the queue is empty
    or the clock would pass [until] (the clock is then set to [until]).
    With [detect_deadlock] (default [false]), raises {!Deadlock} if the run
    ends while some process is still suspended. *)
val run : ?until:float -> ?detect_deadlock:bool -> t -> unit

(** [pending t] is the number of queued (uncancelled) events, in the heap
    and the same-instant lane together. *)
val pending : t -> int

(** [suspended t] is the number of processes currently blocked in
    {!suspend}. *)
val suspended : t -> int

(** [events_processed t] is the cumulative number of events {!run} has
    executed — the denominator of the wall-clock events/sec benchmark.
    Cancelled events are skipped, not executed, so they never count. *)
val events_processed : t -> int

(** {1 Flight-recorder inspection}

    Cheap reads for the telemetry sampler. Each describes the event queue
    as one heap holding every queued event, so the values do not depend
    on which events took the same-instant lane. *)

(** [heap_depth t] is the raw queue occupancy: live plus cancelled events,
    lane entries included ({!pending} nets the census out). *)
val heap_depth : t -> int

(** [heap_capacity t] is the slot count one heap holding every queued
    event would have grown to: [0] before the first event, else 16
    doubled until it covers the most events ever queued at once. *)
val heap_capacity : t -> int

(** [cancelled_events t] is the lazy-cancellation census whose growth
    drives compaction. *)
val cancelled_events : t -> int

(** {1 Process-side operations} *)

(** [now ()] is the current simulated time. *)
val now : unit -> float

(** [self_engine ()] is the engine running the calling process. *)
val self_engine : unit -> t

(** [delay dt] suspends the calling process for [dt >= 0] simulated seconds. *)
val delay : float -> unit

(** [yield ()] reschedules the calling process at the current time, letting
    already-queued same-time events run first. *)
val yield : unit -> unit

(** [spawn_child f] starts [f] as a sibling process at the current time. *)
val spawn_child : (unit -> unit) -> unit

(** {1 Fiber-local storage}

    Each process carries one [int] slot, used by the tracer to propagate
    the current span id across blocking operations and into children. A
    process starts with [0]; a child forked with {!spawn_child} inherits
    the parent's value at fork time (as its own copy). *)

(** [get_local ()] is the calling process's slot value, or [0] when called
    outside any process (it never raises — observers run in both
    contexts). *)
val get_local : unit -> int

(** [set_local v] overwrites the calling process's slot. *)
val set_local : int -> unit

type 'a resumer
(** A one-shot wake-up token for a suspended process: the captured
    continuation plus its engine, preallocated at suspension so waking a
    process costs no closure. Fire it with {!resume}. *)

(** [resume r v] schedules the suspended process holding [r] to continue
    (with value [v]) at the engine's current time. Calling it twice on the
    same token raises [Invalid_argument]. *)
val resume : 'a resumer -> 'a -> unit

(** [suspend register] blocks the calling process. [register] receives the
    process's {!resumer} and typically stores it in a wait queue; the process
    resumes when some other event fires it with {!resume}. This is the
    primitive from which mailboxes, locks and condition variables are
    built. *)
val suspend : ('a resumer -> unit) -> 'a
