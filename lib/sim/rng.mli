(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulator draws from its own [Rng.t],
    obtained by {!split}-ting a root generator seeded per experiment. This
    keeps runs bit-reproducible regardless of component evaluation order. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)
val create : int -> t

(** [split t] derives an independent generator and advances [t]. *)
val split : t -> t

(** [copy t] duplicates the current state without advancing [t]. *)
val copy : t -> t

(** [bits64 t] returns the next raw 64-bit output. *)
val bits64 : t -> int64

(** [float t] draws uniformly from [\[0, 1)]. *)
val float : t -> float

(** [int t bound] draws uniformly from [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [range t lo hi] draws uniformly from [\[lo, hi)] as a float.
    Requires [lo <= hi]. *)
val range : t -> float -> float -> float
