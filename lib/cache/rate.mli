(** Two-bucket sliding-window rate estimator, shared by the {!Hotspot}
    detector and the {!Freshness} controller.

    Per counter, two adjacent half-window buckets approximate a true
    sliding window: the estimated rate at time [now] is

    {v (prev * overlap + cur) / window v}

    where [overlap] is the fraction of the sliding window still covered
    by the previous bucket. O(1) per observation, no per-event
    timestamps; exact for steady arrivals while reacting within one
    half-window to bursts. *)

(** A window width, shared by all the counters of one tracker. *)
type window

(** [window w] is a [w]-second sliding window; [w > 0] is the caller's
    to check. *)
val window : float -> window

(** [width w] is the window's length in seconds. *)
val width : window -> float

(** One counter. *)
type t

(** [create ~now] is an empty counter whose current bucket starts at
    [now]. *)
val create : now:float -> t

(** [note w c ~now] counts one event at [now]. *)
val note : window -> t -> now:float -> unit

(** [rate w c ~now] is the estimated events per second over the window
    ending at [now]. *)
val rate : window -> t -> now:float -> float

(** [quiet w c ~now] is whether, with the buckets rolled forward to
    [now], neither bucket holds an event. *)
val quiet : window -> t -> now:float -> bool

(** [lapsed w c ~now] is whether both buckets lie wholly before [now]
    (the next use would reset the counter), without rolling them. *)
val lapsed : window -> t -> now:float -> bool
