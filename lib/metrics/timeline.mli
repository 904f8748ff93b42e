(** Fixed-capacity flight-recorder timeline: samples bucketed over virtual
    time into a bounded array, with adjacent-bucket merging (doubling the
    bucket width) whenever a sample lands past the end. Memory is bounded
    by [capacity] at any run length; resolution halves each time the
    recorded horizon doubles, so it is safe to leave on for arbitrarily
    long runs. *)

type t

(** [create ?capacity ~interval ()] starts with bucket width [interval]
    (seconds, [> 0]) and at most [capacity] buckets (default 256,
    [>= 2]). *)
val create : ?capacity:int -> interval:float -> unit -> t

val capacity : t -> int

(** [width t] is the current bucket width; [interval * 2^k] after [k]
    merges. *)
val width : t -> float

(** [n_buckets t] is the number of buckets spanned so far ([<= capacity]). *)
val n_buckets : t -> int

(** [record t ~time v] folds one sample in, merging first if [time] falls
    past the last bucket. Raises [Invalid_argument] on negative time. *)
val record : t -> time:float -> float -> unit

(** [tick t ~time] advances the recorded horizon to cover [time] (merging
    as needed) without recording a value — so parallel timelines sampled
    on the same cadence keep identical widths even when one has nothing
    to record in a window. *)
val tick : t -> time:float -> unit

(** One merged bucket. Statistics are [nan] when the bucket holds no
    samples (serialized as [null] by {!Json}). *)
type bucket = {
  t0 : float;  (** bucket start time (seconds) *)
  n : int;  (** samples in the bucket *)
  total : float;  (** sum of sample values ([0.] when empty) *)
  mean : float;
  min : float;
  max : float;
}

(** [bucket t i] for [0 <= i < n_buckets t]. *)
val bucket : t -> int -> bucket

val buckets : t -> bucket array

(** Totals across all buckets: sample count and value sum. Merging never
    changes either — the conservation law the property tests pin down. *)
val total_count : t -> int

val total_sum : t -> float
