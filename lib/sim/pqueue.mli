(** An array-based binary min-heap keyed by (time, sequence): the
    simulation engine's event queue and the cache store's eviction order.

    Times and sequence numbers live in parallel [float array] /
    [int array] columns, so comparisons in the sift loops are
    branch-predictable flat-array reads — no polymorphic compare, no
    closure dispatch, no boxed floats, and no [option] allocation on the
    pop path. Freed slots are overwritten, so popped elements are not
    retained. *)

module Timed : sig
  type 'a t

  (** [create ~dummy ()] returns an empty heap. [dummy] fills freed and
      never-used payload slots so the heap retains no popped element. *)
  val create : dummy:'a -> unit -> 'a t

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  (** [capacity h] is the backing-array size (leak tests, telemetry). *)
  val capacity : 'a t -> int

  (** [push h ~time ~seq x] inserts [x] keyed by [(time, seq)].
      Sequence numbers must be unique for deterministic pop order. *)
  val push : 'a t -> time:float -> seq:int -> 'a -> unit

  (** [min_time h] is the key time of the minimum element.
      @raise Invalid_argument on an empty heap. *)
  val min_time : 'a t -> float

  (** [min_seq h] is the key sequence number of the minimum element.
      @raise Invalid_argument on an empty heap. *)
  val min_seq : 'a t -> int

  (** [peek_min h] is the minimum element, not removed.
      @raise Invalid_argument on an empty heap. *)
  val peek_min : 'a t -> 'a

  (** [pop_min h] removes and returns the minimum element, overwriting
      its slot with [dummy]. @raise Invalid_argument on an empty heap. *)
  val pop_min : 'a t -> 'a

  (** [compact h ~keep] drops every element [x] pushed with sequence
      number [seq] for which [keep ~seq x] is false (O(n)); surviving
      elements keep their keys and relative pop order. Freed slots are
      overwritten with [dummy]. *)
  val compact : 'a t -> keep:(seq:int -> 'a -> bool) -> unit

  (** [clear h] removes every element and releases the backing arrays. *)
  val clear : 'a t -> unit
end
