(** Readers-writer lock with FIFO fairness, used to model the table-level
    locks of the replicated cache directory (paper §4.2: table-granularity
    read/write locks minimise contention while bounding lock traffic).

    Fairness: waiters are served in arrival order; a batch of consecutive
    readers at the head of the queue is admitted together. This prevents both
    reader and writer starvation.

    Taken only through {!wr_lock}, {!wr_unlock} and {!with_wr}, it is a
    FIFO mutex: a free lock is taken at once, and a release hands it to
    the longest waiter. The NICs of {!Net} and the arm of {!Disk} are
    used that way. *)

type t

(** [create ?observe ()] is a fresh, unheld lock. [observe], if given, is
    called once per acquisition with the access kind, the simulated time
    spent waiting ([0.] on the uncontended fast path) and the number of
    waiters already queued when the attempt began. It must only record —
    it runs inside the acquiring process and must not block or
    schedule. *)
val create :
  ?observe:(kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) ->
  unit ->
  t

(** [rd_lock l] acquires shared access, blocking while a writer holds or
    earlier waiters queue. *)
val rd_lock : t -> unit

(** [rd_unlock l] releases one shared hold, admitting the next waiters
    when the last reader leaves. *)
val rd_unlock : t -> unit

(** [wr_lock l] acquires exclusive access. *)
val wr_lock : t -> unit

(** [wr_unlock l] releases exclusive access and admits the next waiter
    batch (a writer, or a run of consecutive readers). *)
val wr_unlock : t -> unit

(** [with_rd l f] runs [f ()] under a read lock, exception-safe. *)
val with_rd : t -> (unit -> 'a) -> 'a

(** [with_wr l f] runs [f ()] under the write lock, exception-safe. *)
val with_wr : t -> (unit -> 'a) -> 'a

(** Cumulative read-acquisition count, for the locking-granularity
    ablation. *)
val rd_acquisitions : t -> int

(** Cumulative write-acquisition count. *)
val wr_acquisitions : t -> int
