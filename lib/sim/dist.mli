(** Probability distributions over a {!Rng.t}.

    These are the building blocks for workload generators: request
    inter-arrival times, CGI execution demands, file sizes and document
    popularity (Zipf). *)

(** [uniform rng lo hi] draws uniformly from [\[lo, hi)]. *)
val uniform : Rng.t -> float -> float -> float

(** [exponential rng ~mean] draws from Exp(1/mean). Requires [mean > 0]. *)
val exponential : Rng.t -> mean:float -> float

(** [normal rng ~mu ~sigma] draws from N(mu, sigma^2) via Box-Muller. *)
val normal : Rng.t -> mu:float -> sigma:float -> float

(** [lognormal rng ~mu ~sigma] draws [exp x] with [x ~ N(mu, sigma^2)].
    [mu]/[sigma] are the parameters of the underlying normal. *)
val lognormal : Rng.t -> mu:float -> sigma:float -> float

(** [lognormal_mean_cv rng ~mean ~cv] draws from a lognormal parameterised by
    its own mean and coefficient of variation (stddev/mean); convenient for
    matching published workload aggregates. Requires [mean > 0], [cv >= 0]. *)
val lognormal_mean_cv : Rng.t -> mean:float -> cv:float -> float

(** Weighted discrete choice over an explicit weight vector. *)
module Discrete : sig
  type t

  (** [make weights] normalises [weights]; all must be [>= 0] with a positive
      sum. *)
  val make : float array -> t

  (** [draw d rng] samples an index, proportionally to its weight. *)
  val draw : t -> Rng.t -> int
end

(** [zipf ~n ~s] is the Zipf-like choice over ranks [0 .. n-1], with
    P(rank = k) proportional to 1/(k+1)^s. Popularity of web documents is
    classically modelled this way. Requires [n >= 1]. *)
val zipf : n:int -> s:float -> Discrete.t
