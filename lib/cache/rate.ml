type window = { width : float; half : float }

let window width = { width; half = width /. 2. }
let width w = w.width

type t = {
  mutable start : float;  (* start of the current half-window bucket *)
  mutable cur : int;
  mutable prev : int;
}

let create ~now = { start = now; cur = 0; prev = 0 }

(* Roll the buckets forward so [c.start] is within [half] of [now]. *)
let advance w c ~now =
  if now -. c.start >= w.half then
    if now -. c.start >= 2. *. w.half then begin
      (* Both buckets are entirely in the past. *)
      c.prev <- 0;
      c.cur <- 0;
      c.start <- now
    end
    else begin
      c.prev <- c.cur;
      c.cur <- 0;
      c.start <- c.start +. w.half
    end

let note w c ~now =
  advance w c ~now;
  c.cur <- c.cur + 1

let rate w c ~now =
  advance w c ~now;
  let elapsed = now -. c.start in
  let overlap = Float.max 0. ((w.half -. elapsed) /. w.half) in
  ((float_of_int c.prev *. overlap) +. float_of_int c.cur) /. w.width

let quiet w c ~now =
  advance w c ~now;
  c.cur = 0 && c.prev = 0

let lapsed w c ~now = now -. c.start >= 2. *. w.half
