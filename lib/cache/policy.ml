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

(* Each branch stores its own result, so no float is boxed on the way. *)
let priority p (cell : Sim.Pqueue.cell) ~clock ~meta ~last_access ~hits
    ~inserted =
  match p with
  | Lru -> cell.time <- last_access
  | Fifo -> cell.time <- inserted
  | Lfu -> cell.time <- float_of_int hits
  | Largest_size -> cell.time <- -.float_of_int meta.Meta.size
  | Cheapest_recompute -> cell.time <- meta.Meta.exec_time
  | Gdsf ->
      let size = float_of_int (Stdlib.max 1 meta.Meta.size) in
      cell.time <-
        clock +. (float_of_int (hits + 1) *. meta.Meta.exec_time /. size)
  | Random -> cell.time <- 0.

let uses_clock = function
  | Gdsf -> true
  | Lru | Fifo | Lfu | Largest_size | Cheapest_recompute | Random -> false
