(** Per-key adaptive freshness controller.

    Replaces the single fixed [Config.default_ttl] with a per-key TTL
    balancing staleness risk against recompute cost ("An Optimal
    Trade-off between Content Freshness and Refresh Cost", PAPERS.md).
    Per key it tracks the access rate (a {!Rate} counter, as in
    {!Hotspot}), the time of the last recomputation and the recompute
    cost (EWMA of measured execution times), and emits

      T* = clamp [min_ttl, max_ttl] (sqrt (2 c / (penalty lambda)))

    — the minimiser of the steady-state cost rate
    [penalty * lambda * T/2 + c/T]. T* is nondecreasing in the cost and
    nonincreasing in the access rate and penalty (property-tested).

    Pure host-side bookkeeping: no blocking, no simulated charges, no
    randomness — attaching a controller perturbs nothing but the TTLs it
    emits. *)

type mode = Fixed | Adaptive

val mode_to_string : mode -> string

type t

(** [create ~min_ttl ~max_ttl ~penalty ~window ()]: [min_ttl > 0],
    [max_ttl >= min_ttl] bound the emitted TTLs; [penalty > 0] is the
    staleness weight (one staleness-second across one access costs
    [penalty] CPU-seconds); [window > 0] is the access-rate estimator's
    sliding window. Raises [Invalid_argument] otherwise. *)
val create :
  min_ttl:float -> max_ttl:float -> penalty:float -> window:float -> unit -> t

(** [observe_access t ~now key] counts one cache-directed access (hit or
    miss) toward the key's rate estimate. *)
val observe_access : t -> now:float -> string -> unit

(** [observe_insert t ~now ~cost key] records one recomputation: notes
    its time (for {!sweep}) and updates the key's cost EWMA. *)
val observe_insert : t -> now:float -> cost:float -> string -> unit

(** [ttl t ~now ~cost key] is the controller's TTL for a result of [key]
    just recomputed at [cost] seconds: T* from the key's tracked state,
    with [cost] blended into the cost EWMA-to-date, clamped to
    [[min_ttl, max_ttl]]. A first-seen key uses one access per [window]
    as the rate floor. *)
val ttl : t -> now:float -> cost:float -> string -> float

(** [effective_ttl ~rule ~script ~default] is the TTL layer precedence
    shared by both freshness modes: a {!Rules} override beats the
    per-script TTL beats the server-wide default (fixed [default_ttl] or
    the adaptive controller). Pure; property-tested. *)
val effective_ttl :
  rule:float option -> script:float option -> default:float option ->
  float option

(** [sweep t ~now] drops key states fully cold for over a window (no
    accesses, no recent insert); returns how many were dropped. Run it
    periodically so memory follows the working set. *)
val sweep : t -> now:float -> int

val clear : t -> unit

(** [tracked t] is the number of keys currently holding state. *)
val tracked : t -> int

val min_ttl : t -> float
val max_ttl : t -> float
