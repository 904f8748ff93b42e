(* Fixed-capacity ring of time buckets with power-of-two merging: when a
   sample lands past the last bucket, adjacent bucket pairs are merged
   (doubling the bucket width) until it fits. Memory is therefore bounded
   by [capacity] whatever the run length, at the cost of resolution that
   halves each time the recorded horizon doubles — the classic
   flight-recorder tradeoff. *)

type t = {
  capacity : int;
  mutable width : float;  (* current bucket width, seconds *)
  mutable used : int;  (* buckets touched or skipped so far *)
  count : int array;  (* samples per bucket *)
  sum : float array;
  vmin : float array;
  vmax : float array;
}

let create ?(capacity = 256) ~interval () =
  if capacity < 2 then invalid_arg "Timeline.create: capacity must be >= 2";
  if not (interval > 0.) then
    invalid_arg "Timeline.create: interval must be > 0";
  {
    capacity;
    width = interval;
    used = 0;
    count = Array.make capacity 0;
    sum = Array.make capacity 0.;
    vmin = Array.make capacity 0.;
    vmax = Array.make capacity 0.;
  }

let capacity t = t.capacity
let width t = t.width
let n_buckets t = t.used

(* Merge bucket pairs (2i, 2i+1) -> i and double the width. *)
let halve t =
  let half = (t.capacity + 1) / 2 in
  for i = 0 to half - 1 do
    let a = 2 * i and b = (2 * i) + 1 in
    let cb = if b < t.capacity then t.count.(b) else 0 in
    let ca = t.count.(a) in
    let c = ca + cb in
    t.sum.(i) <- (t.sum.(a) +. if b < t.capacity then t.sum.(b) else 0.);
    if c > 0 then begin
      if ca > 0 && cb > 0 then begin
        t.vmin.(i) <- Float.min t.vmin.(a) t.vmin.(b);
        t.vmax.(i) <- Float.max t.vmax.(a) t.vmax.(b)
      end
      else if ca > 0 then begin
        t.vmin.(i) <- t.vmin.(a);
        t.vmax.(i) <- t.vmax.(a)
      end
      else begin
        t.vmin.(i) <- t.vmin.(b);
        t.vmax.(i) <- t.vmax.(b)
      end
    end;
    t.count.(i) <- c
  done;
  for i = half to t.capacity - 1 do
    t.count.(i) <- 0;
    t.sum.(i) <- 0.
  done;
  t.width <- t.width *. 2.;
  t.used <- (t.used + 1) / 2

let index_for t time =
  let rec fit () =
    let idx = int_of_float (time /. t.width) in
    if idx >= t.capacity then begin
      halve t;
      fit ()
    end
    else idx
  in
  fit ()

let tick t ~time =
  if time < 0. then invalid_arg "Timeline.tick: negative time";
  let idx = index_for t time in
  if idx >= t.used then t.used <- idx + 1

let record t ~time v =
  if time < 0. then invalid_arg "Timeline.record: negative time";
  let idx = index_for t time in
  if idx >= t.used then t.used <- idx + 1;
  let c = t.count.(idx) in
  t.sum.(idx) <- t.sum.(idx) +. v;
  if c = 0 then begin
    t.vmin.(idx) <- v;
    t.vmax.(idx) <- v
  end
  else begin
    if v < t.vmin.(idx) then t.vmin.(idx) <- v;
    if v > t.vmax.(idx) then t.vmax.(idx) <- v
  end;
  t.count.(idx) <- c + 1

type bucket = {
  t0 : float;
  n : int;
  total : float;
  mean : float;  (* nan when the bucket is empty *)
  min : float;  (* nan when the bucket is empty *)
  max : float;  (* nan when the bucket is empty *)
}

let bucket t i =
  if i < 0 || i >= t.used then invalid_arg "Timeline.bucket: out of range";
  let n = t.count.(i) in
  if n = 0 then
    {
      t0 = float_of_int i *. t.width;
      n = 0;
      total = 0.;
      mean = Float.nan;
      min = Float.nan;
      max = Float.nan;
    }
  else
    {
      t0 = float_of_int i *. t.width;
      n;
      total = t.sum.(i);
      mean = t.sum.(i) /. float_of_int n;
      min = t.vmin.(i);
      max = t.vmax.(i);
    }

let buckets t = Array.init t.used (bucket t)
let total_count t = Array.fold_left ( + ) 0 t.count

let total_sum t =
  let s = ref 0. in
  Array.iter (fun x -> s := !s +. x) t.sum;
  !s
