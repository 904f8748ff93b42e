(** Array-based binary min-heaps for the simulation engine.

    The generic heap orders elements by a comparison supplied at
    creation; ties are broken by insertion order only if the comparison
    says so. The {!Timed} variant is specialised for the engine's event
    queue: keys are (time, sequence) pairs held in parallel unboxed
    arrays, so the inner loop performs no closure calls and allocates
    nothing.

    Both heaps overwrite freed slots, so popped elements are not
    retained, and the generic heap releases capacity as it drains. *)

type 'a t

(** [create ~cmp] returns an empty heap ordered by [cmp] (min first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

(** [length h] is the number of elements held. *)
val length : 'a t -> int

(** [is_empty h] is [length h = 0]. *)
val is_empty : 'a t -> bool

(** [capacity h] is the current backing-array size (for leak tests). *)
val capacity : 'a t -> int

(** [push h x] inserts [x]. Amortised O(log n). *)
val push : 'a t -> 'a -> unit

(** [peek h] returns the minimum without removing it. *)
val peek : 'a t -> 'a option

(** [pop h] removes and returns the minimum. The freed slot is
    overwritten and the backing array shrinks once occupancy falls below
    a quarter of capacity, so drained heaps do not pin dead elements or
    peak-size arrays. *)
val pop : 'a t -> 'a option

(** [clear h] removes every element and releases the backing array. *)
val clear : 'a t -> unit

(** [drain h f] pops every element in order, applying [f]. *)
val drain : 'a t -> ('a -> unit) -> unit

(** Min-heap keyed by (time, sequence), specialised for the engine's
    event loop. Times and sequence numbers live in parallel [float
    array] / [int array] columns, so comparisons in the sift loops are
    branch-predictable flat-array reads — no polymorphic compare, no
    closure dispatch, no boxed floats, and no [option] allocation on the
    pop path. *)
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

  (** [compact h ~keep] drops every element [keep] rejects (O(n));
      surviving elements keep their keys and relative pop order. Freed
      slots are overwritten with [dummy]. *)
  val compact : 'a t -> keep:('a -> bool) -> unit

  (** [clear h] removes every element and releases the backing arrays. *)
  val clear : 'a t -> unit
end
