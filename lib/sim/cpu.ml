(* The CPU's running totals, in a record of floats only: such a record
   is a flat block, so updating it boxes nothing (a [float ref] would
   box on every store). *)
type books = { mutable last_update : float; mutable work_delivered : float }

(* Resident jobs live in slots [0, n) of two parallel arrays, oldest
   first: remaining work in a flat [float array] (stored in place, never
   boxed) and the job's resumer beside it. The completion timer and the
   suspension are built once, at [create], and each arrival or
   completion re-arms or clears that one timer, so a [consume] allocates
   nothing of its own: no closure, job record, list cell or event. *)
type t = {
  clock : Engine.clock;  (* the engine's, read without boxing *)
  cores : int;
  speed : float;
  mutable rem : float array;
  mutable resumers : unit Engine.resumer array;
  mutable n : int;
  books : books;
  due : Pqueue.cell;  (* the completion time handed to [completion] *)
  mutable completion : Engine.timer;
  mutable n_completed : int;
  observe : (wait:float -> depth:int -> unit) option;
  mutable arrival : unit Engine.suspension;
      (* [completion] and [arrival] close over the record itself: [create]
         sets each once, right after the record exists *)
}

let eps = 1e-12

(* Fill for resumer slots at and past [n]. A vacated slot is overwritten
   with it, so no finished job's continuation stays reachable. It is an
   immediate, never read: only slots below [n] are. *)
let vacant : unit Engine.resumer = Obj.magic 0

(* Per-job service rate with [n > 0] resident jobs. Comparisons rather
   than [Float.min]/[Float.max], here and below: they give the same bits
   for the finite, non-negative values the CPU handles, and an inlined
   comparison boxes no float. *)
let[@inline] rate t =
  let share = float_of_int t.cores /. float_of_int t.n in
  t.speed *. if share < 1.0 then share else 1.0

(* Charge elapsed wall time against every resident job. *)
let advance t =
  let now = t.clock.now in
  let dt = now -. t.books.last_update in
  if dt > 0. && t.n > 0 then begin
    let served = dt *. rate t in
    let rem = t.rem in
    for i = 0 to t.n - 1 do
      let left = rem.(i) -. served in
      rem.(i) <- (if left > 0. then left else 0.)
    done;
    t.books.work_delivered <-
      t.books.work_delivered +. (served *. float_of_int t.n)
  end;
  t.books.last_update <- now

let reschedule t =
  if t.n = 0 then Engine.clear t.completion
  else begin
    (* Newest first, as the list-based model kept in test/cpu_ref.ml
       folds, so that the two stay bit-identical. *)
    let min_rem = ref infinity in
    for i = t.n - 1 downto 0 do
      let r = t.rem.(i) in
      if not (r > !min_rem) then min_rem := r
    done;
    (* The absolute time, computed here as [arm_after] would, and handed
       over in a cell, so it is never boxed. *)
    let dt = !min_rem /. rate t in
    t.due.time <- t.clock.now +. if dt > 0. then dt else 0.;
    Engine.arm_at_cell t.completion t.due
  end

let complete t =
  advance t;
  let n = t.n and rem = t.rem and resumers = t.resumers in
  (* Resume finished jobs newest first, as the list-based model does: the
     order fixes their events' sequence numbers. Resumers only queue
     events, so the arrays are not touched while this loop runs. *)
  for i = n - 1 downto 0 do
    if rem.(i) <= eps then Engine.resume resumers.(i) ()
  done;
  (* Close the gaps in place, keeping the survivors in arrival order. *)
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if not (rem.(i) <= eps) then begin
      rem.(!kept) <- rem.(i);
      resumers.(!kept) <- resumers.(i);
      incr kept
    end
  done;
  Array.fill resumers !kept (n - !kept) vacant;
  t.n <- !kept;
  t.n_completed <- t.n_completed + (n - !kept);
  reschedule t

(* Runs inside [Engine.suspend_with]: the new job's demand is already
   parked in slot [n] by [consume]. *)
let register t resume =
  advance t;
  t.resumers.(t.n) <- resume;
  t.n <- t.n + 1;
  reschedule t

let create ?(speed = 1.0) ?observe engine ~cores =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  if speed <= 0. then invalid_arg "Cpu.create: speed must be positive";
  let rem = Array.make 8 0. and resumers = Array.make 8 vacant in
  let t =
    {
      clock = Engine.clock engine;
      cores;
      speed;
      rem;
      resumers;
      n = 0;
      books =
        { last_update = Engine.current_time engine; work_delivered = 0. };
      due = { time = 0. };
      completion = Engine.timer engine ignore;
      n_completed = 0;
      observe;
      arrival = Engine.suspension ignore;
    }
  in
  t.completion <- Engine.timer engine (fun () -> complete t);
  t.arrival <- Engine.suspension (fun resume -> register t resume);
  t

(* Make room for one more job, then park its demand in slot [n]. *)
let park t demand =
  let cap = Array.length t.rem in
  if t.n = cap then begin
    let rem = Array.make (2 * cap) 0. in
    let resumers = Array.make (2 * cap) vacant in
    Array.blit t.rem 0 rem 0 cap;
    Array.blit t.resumers 0 resumers 0 cap;
    t.rem <- rem;
    t.resumers <- resumers
  end;
  t.rem.(t.n) <- demand

let consume t demand =
  if demand < 0. then invalid_arg "Cpu.consume: negative demand";
  if demand <= eps then begin
    (match t.observe with
    | None -> ()
    | Some f -> f ~wait:0. ~depth:t.n);
    Engine.yield ()
  end
  else begin
    let depth = t.n in
    park t demand;
    match t.observe with
    | None -> Engine.suspend_with t.arrival
    | Some f ->
        (* Contention delay: elapsed service time beyond the solo (one
           job, dedicated core) time for this demand. *)
        let t0 = Engine.now () in
        Engine.suspend_with t.arrival;
        let solo = demand /. t.speed in
        f ~wait:(Float.max 0. (Engine.now () -. t0 -. solo)) ~depth
  end

let active_jobs t = t.n
let completed t = t.n_completed

let busy_time t =
  (* Include work delivered since the last bookkeeping update. *)
  let dt = t.clock.now -. t.books.last_update in
  let extra =
    if dt > 0. && t.n > 0 then dt *. rate t *. float_of_int t.n else 0.
  in
  t.books.work_delivered +. extra

let utilisation t ~elapsed =
  if elapsed <= 0. then 0.
  else busy_time t /. (elapsed *. t.speed *. float_of_int t.cores)
