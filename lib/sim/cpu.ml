(* Resident jobs live in slots [0, n) of two parallel arrays, oldest
   first: remaining work in a flat [float array] (stored in place, never
   boxed) and the job's resumer beside it. The completion action and the
   suspend-registration function are built once, at [create], so a
   [consume] allocates nothing of its own: no closure, job record or
   list cell. *)
type t = {
  engine : Engine.t;
  cores : int;
  speed : float;
  mutable rem : float array;
  mutable resumers : unit Engine.resumer array;
  mutable n : int;
  last_update : float ref;
  work_delivered : float ref;
  mutable next_completion : Engine.handle;
  mutable n_completed : int;
  observe : (wait:float -> depth:int -> unit) option;
  on_complete : unit -> unit;
  register : unit Engine.resumer -> unit;
}

let eps = 1e-12

(* Fill for resumer slots at and past [n]. A vacated slot is overwritten
   with it, so no finished job's continuation stays reachable. It is an
   immediate, never read: only slots below [n] are. *)
let vacant : unit Engine.resumer = Obj.magic 0

(* Per-job service rate with the current multiprogramming level. *)
let rate t =
  let n = t.n in
  if n = 0 then 0.
  else t.speed *. Float.min 1.0 (float_of_int t.cores /. float_of_int n)

(* Charge elapsed wall time against every resident job. *)
let advance t =
  let now = Engine.current_time t.engine in
  let dt = now -. !(t.last_update) in
  if dt > 0. && t.n > 0 then begin
    let r = rate t in
    let served = dt *. r in
    let rem = t.rem in
    for i = 0 to t.n - 1 do
      rem.(i) <- Float.max 0. (rem.(i) -. served)
    done;
    t.work_delivered := !(t.work_delivered) +. (served *. float_of_int t.n)
  end;
  t.last_update := now

let reschedule t =
  Engine.cancel t.next_completion;
  if t.n > 0 then begin
    (* Newest first, as the list-based model kept in test/cpu_ref.ml
       folds, so that the two stay bit-identical. *)
    let min_rem = ref infinity in
    for i = t.n - 1 downto 0 do
      min_rem := Float.min !min_rem t.rem.(i)
    done;
    let r = rate t in
    let dt = Float.max 0. (!min_rem /. r) in
    t.next_completion <- Engine.schedule_after t.engine dt t.on_complete
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

(* Runs inside [Engine.suspend]: the new job's demand is already parked
   in slot [n] by [consume]. *)
let register t resume =
  advance t;
  t.resumers.(t.n) <- resume;
  t.n <- t.n + 1;
  reschedule t

let create ?(speed = 1.0) ?observe engine ~cores =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  if speed <= 0. then invalid_arg "Cpu.create: speed must be positive";
  let rem = Array.make 8 0. and resumers = Array.make 8 vacant in
  let last_update = ref (Engine.current_time engine) in
  let rec t =
    {
      engine;
      cores;
      speed;
      rem;
      resumers;
      n = 0;
      last_update;
      work_delivered = ref 0.;
      next_completion = Engine.no_event;
      n_completed = 0;
      observe;
      on_complete = (fun () -> complete t);
      register = (fun resume -> register t resume);
    }
  in
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
    | None -> Engine.suspend t.register
    | Some f ->
        (* Contention delay: elapsed service time beyond the solo (one
           job, dedicated core) time for this demand. *)
        let t0 = Engine.now () in
        Engine.suspend t.register;
        let solo = demand /. t.speed in
        f ~wait:(Float.max 0. (Engine.now () -. t0 -. solo)) ~depth
  end

let active_jobs t = t.n
let completed t = t.n_completed

let busy_time t =
  (* Include work delivered since the last bookkeeping update. *)
  let now = Engine.current_time t.engine in
  let dt = now -. !(t.last_update) in
  let extra =
    if dt > 0. && t.n > 0 then dt *. rate t *. float_of_int t.n else 0.
  in
  !(t.work_delivered) +. extra

let utilisation t ~elapsed =
  if elapsed <= 0. then 0.
  else busy_time t /. (elapsed *. t.speed *. float_of_int t.cores)
