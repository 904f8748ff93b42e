(** Array-based binary min-heaps keyed by (time, sequence): the
    simulation engine's event queue and timers, and the cache store's
    eviction order.

    Times and sequence numbers live in parallel [float array] /
    [int array] columns, so comparisons in the sift loops are
    branch-predictable flat-array reads — no polymorphic compare, no
    closure dispatch, no boxed floats, and no [option] allocation on the
    pop path. Freed slots are overwritten, so popped elements are not
    retained. *)

(** A float stored unboxed. A record whose only field is a float is a
    flat block, so setting [time] allocates nothing; a [float ref]'s
    field is polymorphic, so each store into one boxes the float. *)
type cell = { mutable time : float }

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

  (** [push_cell h key ~seq x] is [push h ~time:key.time ~seq x]. A float
      passed to a function in another module is boxed; one handed over in
      a {!cell} is not, so the engine schedules its events this way. *)
  val push_cell : 'a t -> cell -> seq:int -> 'a -> unit

  (** [min_time h] is the key time of the minimum element.
      @raise Invalid_argument on an empty heap. *)
  val min_time : 'a t -> float

  (** [read_min_time h cell] stores {!min_time} in [cell]. A float
      returned across modules is boxed; one stored in a {!cell} is not,
      so the engine's event loop reads keys this way.
      @raise Invalid_argument on an empty heap. *)
  val read_min_time : 'a t -> cell -> unit

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
end

(** The same heap over elements that can be re-keyed or removed in place:
    the engine's armed timers and the cache store's entries. Each element records its own slot, so
    {!Indexed.set} on a queued element moves its entry rather than adding
    a second one. An element belongs to at most one heap. *)
module Indexed : sig
  type 'a t

  (** An element carrying a value, queued in no heap until {!set}. *)
  type 'a elt

  val elt : 'a -> 'a elt
  val value : 'a elt -> 'a

  (** [create ~dummy ()] returns an empty heap; [dummy] fills freed
      slots, as in {!Timed.create}. *)
  val create : dummy:'a -> unit -> 'a t

  val length : 'a t -> int
  val is_empty : 'a t -> bool

  (** [set h e key ~seq] queues [e] keyed by [(key.time, seq)], or
      re-keys it in place if it is already queued (O(log n)). The time
      comes in a {!cell}, as in {!Timed.push_cell}, so it is never
      boxed. *)
  val set : 'a t -> 'a elt -> cell -> seq:int -> unit

  (** [remove h e] takes [e] out of [h]; a no-op if [e] is not queued. *)
  val remove : 'a t -> 'a elt -> unit

  (** [read_min_time h cell] stores the key time of the minimum element
      in [cell], unboxed, as {!Timed.read_min_time} does.
      @raise Invalid_argument on an empty heap. *)
  val read_min_time : 'a t -> cell -> unit

  (** [min_seq h] is the key sequence number of the minimum element.
      @raise Invalid_argument on an empty heap. *)
  val min_seq : 'a t -> int

  (** [pop_min h] removes and returns the minimum element.
      @raise Invalid_argument on an empty heap. *)
  val pop_min : 'a t -> 'a elt
end
