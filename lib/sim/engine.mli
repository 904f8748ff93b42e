(** Deterministic discrete-event simulation engine.

    Simulated threads ("processes") are ordinary OCaml functions executed
    under an effect handler. A process suspends by performing one of the
    engine's effects ({!delay}, {!suspend}, or a synchronisation primitive
    built on them) and the engine resumes it later by scheduling its captured
    continuation as an event. Events fire in (time, sequence) order, so runs
    are fully deterministic.

    Events that are due at the current time — a {!resume}, a {!delay}
    that ends now (such as {!yield}), {!spawn} and {!spawn_child} — wait
    in a FIFO lane instead of the timed heap, and armed {!timer}s wait in
    an indexed heap of their own. Both are implementation details: [run]
    merges the lane, the event heap and the timers in (time, sequence)
    order, and every count below includes all three.

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

exception Not_in_process
(** Raised when a process-only operation is performed outside any process. *)

exception Deadlock of string
(** Raised by {!run} when [detect_deadlock] is set and the queue drains while
    suspended processes remain. *)

val create : unit -> t

(** [current_time t] is the engine clock (also see {!now} from inside a
    process). Starts at [0.]. *)
val current_time : t -> float

type clock = private { mutable now : float }
(** The engine's clock cell, read-only outside the engine. A float
    returned from a call is boxed; one read from this flat record is
    not, so a hot path that reads the clock per event (the CPU model)
    keeps the cell instead of calling {!current_time}. *)

(** [clock t] is [t]'s clock cell: [(clock t).now = current_time t],
    always. *)
val clock : t -> clock

(** [schedule_at t time f] queues [f] to run once at absolute [time].
    Events scheduled for the past raise [Invalid_argument]. A queued event
    cannot be taken back; something that may need to be moved or dropped
    before it is due is a {!timer}. *)
val schedule_at : t -> float -> (unit -> unit) -> unit

(** [schedule_after t dt f] queues [f] at [current_time t +. dt], [dt >= 0]. *)
val schedule_after : t -> float -> (unit -> unit) -> unit

(** {1 Timers} *)

type timer
(** A re-armable event: created once, then armed, re-armed or cleared any
    number of times. An armed timer fires once, at the instant it was
    last armed for, and is then unarmed until armed again (its action may
    re-arm it). *)

(** [timer t f] is an unarmed timer of [t] that runs [f] when it fires. *)
val timer : t -> (unit -> unit) -> timer

(** [arm_at tm time] arms [tm] to fire at absolute [time], moving it if it
    is already armed. Arming takes the engine's next sequence number, as
    {!schedule_at} would, so a re-armed timer fires after any event
    scheduled earlier for the same instant. Times in the past raise
    [Invalid_argument]. *)
val arm_at : timer -> float -> unit

(** [arm_after tm dt] is [arm_at tm (current_time t +. dt)], [dt >= 0]. *)
val arm_after : timer -> float -> unit

(** [arm_at_cell tm key] is [arm_at tm key.time]. A float passed to a
    function in another module is boxed; one handed over in a
    {!Pqueue.cell} is not, so a caller that arms a timer per event (the
    CPU model) keeps a cell for it. *)
val arm_at_cell : timer -> Pqueue.cell -> unit

(** [clear tm] disarms [tm]; a no-op if it is not armed (for instance,
    because it has fired). *)
val clear : timer -> unit

(** [spawn t f] registers [f] as a new process starting at the current time.
    May be called from inside or outside a process. *)
val spawn : t -> (unit -> unit) -> unit

(** [run ?until ?detect_deadlock t] executes events until the queue is empty
    or the clock would pass [until] (the clock is then set to [until]).
    With [detect_deadlock] (default [false]), raises {!Deadlock} if the run
    ends while some process is still suspended. *)
val run : ?until:float -> ?detect_deadlock:bool -> t -> unit

(** [pending t] is the number of queued events: the heap, the
    same-instant lane and the armed timers together. *)
val pending : t -> int

(** [suspended t] is the number of processes currently blocked in
    {!suspend}. *)
val suspended : t -> int

(** [events_processed t] is the cumulative number of events {!run} has
    executed, timer firings included — the denominator of the wall-clock
    events/sec benchmark. A cleared timer never fires, so it never
    counts. *)
val events_processed : t -> int

(** [heap_capacity t] is the slot count one heap holding every queued
    event would have grown to: [0] before the first event, else 16
    doubled until it covers the most events ever queued at once ({!pending}
    at its peak). Like {!pending}, it describes the queue as one heap, so
    it does not depend on which events took the lane or were timers. *)
val heap_capacity : t -> int

(** {1 Process-side operations} *)

(** [now ()] is the current simulated time. *)
val now : unit -> float

(** [self_engine ()] is the engine running the calling process. *)
val self_engine : unit -> t

(** [delay dt] suspends the calling process for [dt >= 0] simulated
    seconds. The duration reaches the handler through an engine cell, and
    the handler is built once per engine, so a delay allocates no
    closure. *)
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
    built. It is [suspend_with (suspension register)]. *)
val suspend : ('a resumer -> unit) -> 'a

type 'a suspension
(** A blocking step built once and performed many times: a {!suspend}
    whose handler already exists, so performing it allocates no closure.
    It holds no engine, so one value serves every process that blocks
    the same way; build it per wait queue (as [Cpu] and [Mailbox] do at
    [create]), not per process. *)

(** [suspension register] is the suspension that calls [register] with
    the blocked process's {!resumer}. *)
val suspension : ('a resumer -> unit) -> 'a suspension

(** [suspend_with s] blocks the calling process as [suspend register]
    does, for the [register] [s] was built with. *)
val suspend_with : 'a suspension -> 'a
