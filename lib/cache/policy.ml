type t =
  | Lru
  | Fifo
  | Lfu
  | Largest_size
  | Cheapest_recompute
  | Gdsf
  | Random

let all = [ Lru; Fifo; Lfu; Largest_size; Cheapest_recompute; Gdsf; Random ]

let to_string = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Lfu -> "lfu"
  | Largest_size -> "size"
  | Cheapest_recompute -> "exec-time"
  | Gdsf -> "gdsf"
  | Random -> "random"

type access = { last_access : float; hits : int; inserted : float }

let priority p ~clock ~meta ~access =
  match p with
  | Lru -> access.last_access
  | Fifo -> access.inserted
  | Lfu -> float_of_int access.hits
  | Largest_size -> -.float_of_int meta.Meta.size
  | Cheapest_recompute -> meta.Meta.exec_time
  | Gdsf ->
      let size = float_of_int (Stdlib.max 1 meta.Meta.size) in
      clock
      +. (float_of_int (access.hits + 1) *. meta.Meta.exec_time /. size)
  | Random -> 0.

let uses_clock = function
  | Gdsf -> true
  | Lru | Fifo | Lfu | Largest_size | Cheapest_recompute | Random -> false
