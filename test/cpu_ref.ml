(* Reference model for test_cpu_model.ml: the processor-sharing CPU as it
   was written before its job set moved into flat arrays — jobs in a
   list, newest first; a closure, job record and float ref per
   [consume]. It is the oracle [Sim.Cpu] must match bit for bit. One
   thing changed: the engine no longer cancels events, so the pending
   completion is a timer, which a reschedule re-arms where it used to
   cancel the event and schedule a new one. The timer is made on first
   use. *)

open Sim

(* [remaining] is a [float ref] cell, rewritten for every resident job on
   every consume/complete. (Each store boxes the float, as a store into a
   [mutable float] field of this mixed record would; [Sim.Cpu] keeps its
   remaining work in a flat [float array] instead.) *)
type job = { remaining : float ref; resume : unit Engine.resumer }

type t = {
  engine : Engine.t;
  cores : int;
  speed : float;
  mutable jobs : job list;
  last_update : float ref;
  work_delivered : float ref;
  mutable completion : Engine.timer option;
  mutable n_completed : int;
  observe : (wait:float -> depth:int -> unit) option;
}

let eps = 1e-12

let create ?(speed = 1.0) ?observe engine ~cores =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  if speed <= 0. then invalid_arg "Cpu.create: speed must be positive";
  {
    engine;
    cores;
    speed;
    jobs = [];
    last_update = ref (Engine.current_time engine);
    work_delivered = ref 0.;
    completion = None;
    n_completed = 0;
    observe;
  }

(* Per-job service rate with the current multiprogramming level. *)
let rate t =
  let n = List.length t.jobs in
  if n = 0 then 0.
  else t.speed *. Float.min 1.0 (float_of_int t.cores /. float_of_int n)

(* Charge elapsed wall time against every resident job. *)
let advance t =
  let now = Engine.current_time t.engine in
  let dt = now -. !(t.last_update) in
  if dt > 0. && t.jobs <> [] then begin
    let r = rate t in
    let served = dt *. r in
    List.iter
      (fun j -> j.remaining := Float.max 0. (!(j.remaining) -. served))
      t.jobs;
    t.work_delivered :=
      !(t.work_delivered) +. (served *. float_of_int (List.length t.jobs))
  end;
  t.last_update := now

let rec reschedule t =
  match t.jobs with
  | [] -> Option.iter Engine.clear t.completion
  | jobs ->
      let min_rem =
        List.fold_left (fun acc j -> Float.min acc !(j.remaining)) infinity jobs
      in
      let r = rate t in
      let dt = Float.max 0. (min_rem /. r) in
      Engine.arm_after (completion t) dt

and completion t =
  match t.completion with
  | Some tm -> tm
  | None ->
      let tm = Engine.timer t.engine (fun () -> complete t) in
      t.completion <- Some tm;
      tm

and complete t =
  advance t;
  let done_, rest = List.partition (fun j -> !(j.remaining) <= eps) t.jobs in
  t.jobs <- rest;
  t.n_completed <- t.n_completed + List.length done_;
  (* Resumers schedule their continuations at the current time. *)
  List.iter (fun j -> Engine.resume j.resume ()) done_;
  reschedule t

let consume t demand =
  if demand < 0. then invalid_arg "Cpu.consume: negative demand";
  if demand <= eps then begin
    (match t.observe with
    | None -> ()
    | Some f -> f ~wait:0. ~depth:(List.length t.jobs));
    Engine.yield ()
  end
  else begin
    let depth = List.length t.jobs in
    match t.observe with
    | None ->
        Engine.suspend (fun resume ->
            advance t;
            t.jobs <- { remaining = ref demand; resume } :: t.jobs;
            reschedule t)
    | Some f ->
        (* Contention delay: elapsed service time beyond the solo (one
           job, dedicated core) time for this demand. *)
        let t0 = Engine.now () in
        Engine.suspend (fun resume ->
            advance t;
            t.jobs <- { remaining = ref demand; resume } :: t.jobs;
            reschedule t);
        let solo = demand /. t.speed in
        f ~wait:(Float.max 0. (Engine.now () -. t0 -. solo)) ~depth
  end

let active_jobs t = List.length t.jobs
let completed t = t.n_completed

let busy_time t =
  (* Include work delivered since the last bookkeeping update. *)
  let now = Engine.current_time t.engine in
  let dt = now -. !(t.last_update) in
  let extra =
    if dt > 0. && t.jobs <> [] then
      dt *. rate t *. float_of_int (List.length t.jobs)
    else 0.
  in
  !(t.work_delivered) +. extra

let utilisation t ~elapsed =
  if elapsed <= 0. then 0.
  else busy_time t /. (elapsed *. t.speed *. float_of_int t.cores)
