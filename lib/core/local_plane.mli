(** The metadata plane of no-cache and standalone nodes: each node's own
    store and nothing else. No directory, no messages, no locks. *)

include Plane.S with type t = unit
