(** Sliding-window hotspot detector for the sharded metadata plane (see
    docs/METADATA_PLANE.md).

    Each shard home records the forwarded lookups it serves per key in a
    {!Rate} counter (O(1) per observation, no per-event timestamps). A
    key whose rate reaches the promotion threshold is {e hot}: the server
    pushes its directory entry to k ring successors so their local probes
    answer without forwarding. A hot key is demoted by {!sweep} only once its rate falls below {e
    half} the threshold — promote-at-T / demote-at-T/2 hysteresis, so a
    key hovering at the threshold does not flap its replica set.

    Purely host-side and deterministic: no simulated charges, no random
    stream. The caller drives all effects — this module only decides. *)

type t

(** [create ~threshold ~window] — promotion at [threshold] lookups/s
    measured over a [window]-second sliding window; demotion below
    [threshold /. 2]. Both must be positive. *)
val create : threshold:float -> window:float -> t

(** [record t ~now key] counts one forwarded lookup for [key] at time
    [now]. Returns [`Promoted] exactly when this observation lifts a
    cold key over the threshold (the caller then pushes the entry to the
    replica set); [`Noted] otherwise. *)
val record : t -> now:float -> string -> [ `Promoted | `Noted ]

(** [is_hot t key] is whether [key] is currently promoted. *)
val is_hot : t -> string -> bool

(** [sweep t ~now] demotes every hot key whose rate has fallen below
    half the threshold and returns them (sorted, so the caller's
    demotion messages are deterministically ordered); also
    garbage-collects counters of fully cold keys. Call once per window
    (the server's hotspot sweeper daemon does). *)
val sweep : t -> now:float -> string list

(** [forget t key] drops all state for [key] (it was deleted from the
    shard); [true] when the key was hot — the caller must then retract
    the replicas, which is a demotion. *)
val forget : t -> string -> bool

(** [clear t] wipes all state (crash). *)
val clear : t -> unit

(** [hot_count t] is the number of currently promoted keys. *)
val hot_count : t -> int
