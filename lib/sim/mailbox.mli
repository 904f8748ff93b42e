(** Unbounded typed FIFO channel between simulated processes.

    [send] never blocks; [recv] blocks until a message is available.
    Receivers are served in FIFO order, so a pool of request threads
    blocking on one mailbox behaves like worker threads taking turns on a
    listen socket (paper §4.1). *)

type 'a t

(** [create ?on_wait ?on_depth ()] is a fresh, empty mailbox. [on_wait],
    if given, is called once per completed receive with the simulated
    time the receiver spent blocked ([0.] when a message was already
    queued) — including timed-out receives, where it records the full
    timeout. [on_depth] is called after every {!send} with the resulting
    backlog of unconsumed messages ([0] when the message was handed
    straight to a waiting receiver). Both must only record: they run on
    the hot path ([on_depth] possibly in engine-event context) and must
    not block or schedule. *)
val create :
  ?on_wait:(float -> unit) -> ?on_depth:(int -> unit) -> unit -> 'a t

(** [send mb v] enqueues [v], waking the longest-waiting receiver if any. *)
val send : 'a t -> 'a -> unit

(** [recv mb] dequeues the next message, blocking while empty. *)
val recv : 'a t -> 'a

(** [recv_timeout mb ~timeout] is {!recv} bounded by [timeout >= 0]
    simulated seconds: [None] if nothing arrived in time. A message and
    the timeout expiring at the same instant resolve in event order.
    [~timeout:infinity] waits exactly as {!recv} does and schedules no
    timer. *)
val recv_timeout : 'a t -> timeout:float -> 'a option

(** [try_recv mb] dequeues without blocking. *)
val try_recv : 'a t -> 'a option

(** [length mb] is the number of queued (unconsumed) messages. *)
val length : 'a t -> int
