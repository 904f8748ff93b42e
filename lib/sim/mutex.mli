(** Mutual-exclusion lock for simulated processes (FIFO hand-off). *)

type t

(** [create ?observe ()] is a fresh, unlocked mutex. [observe], if given,
    is called once per {!lock} acquisition with the simulated time spent
    waiting ([0.] on the uncontended fast path) and the number of waiters
    already queued when the attempt began. It must only record — it runs
    inside the acquiring process and must not block or schedule. *)
val create : ?observe:(wait:float -> depth:int -> unit) -> unit -> t

(** [lock m] blocks the calling process until the lock is held. *)
val lock : t -> unit

(** [try_lock m] acquires without blocking; [true] on success. *)
val try_lock : t -> bool

(** [unlock m] releases and hands the lock to the longest waiter, if any.
    Raises [Invalid_argument] if the lock is not held. *)
val unlock : t -> unit

(** [with_lock m f] runs [f ()] holding the lock, releasing on exception. *)
val with_lock : t -> (unit -> 'a) -> 'a

(** [locked m] is [true] while some process holds the lock. *)
val locked : t -> bool
