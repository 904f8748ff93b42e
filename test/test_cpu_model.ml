(* Model-based test of the processor-sharing CPU. [Sim.Cpu] keeps its
   resident jobs in flat arrays; [Cpu_ref] is the list-based CPU it
   replaced. Both are driven with the same random schedules on fresh
   engines, and everything observable must agree exactly: each job's
   completion time (compared bit for bit), the order in which finished
   jobs resume, the observer's reports, and busy_time, utilisation and
   completed, sampled during the run and read at its end. *)

module type CPU = sig
  type t

  val create :
    ?speed:float ->
    ?observe:(wait:float -> depth:int -> unit) ->
    Sim.Engine.t ->
    cores:int ->
    t

  val consume : t -> float -> unit
  val active_jobs : t -> int
  val completed : t -> int
  val busy_time : t -> float
  val utilisation : t -> elapsed:float -> float
end

(* One process: wait [gap], then consume [demand]; repeated per step. *)
type step = { gap : float; demand : float }

type schedule = {
  cores : int;
  speed : float;
  observe : bool;
  procs : step list list;
  samples : float list;  (** instants at which a sampler reads the CPU *)
}

type event =
  | Done of int * int * int64  (** process, step, completion time bits *)
  | Observed of int64 * int  (** contention delay bits, queue depth *)
  | Sample of int64 * int64 * int * int
      (** busy_time and utilisation bits, completed, active jobs *)

let bits = Int64.bits_of_float

module Run (C : CPU) = struct
  let run s =
    let eng = Sim.Engine.create () in
    let log = ref [] in
    let emit e = log := e :: !log in
    let observe =
      if s.observe then
        Some (fun ~wait ~depth -> emit (Observed (bits wait, depth)))
      else None
    in
    let cpu = C.create ~speed:s.speed ?observe eng ~cores:s.cores in
    let read () =
      let now = Sim.Engine.current_time eng in
      Sample
        ( bits (C.busy_time cpu),
          bits (C.utilisation cpu ~elapsed:now),
          C.completed cpu,
          C.active_jobs cpu )
    in
    List.iteri
      (fun p steps ->
        Sim.Engine.spawn eng (fun () ->
            List.iteri
              (fun i { gap; demand } ->
                Sim.Engine.delay gap;
                C.consume cpu demand;
                emit (Done (p, i, bits (Sim.Engine.now ()))))
              steps))
      s.procs;
    List.iter
      (fun at ->
        Sim.Engine.schedule_at eng at (fun () -> emit (read ())))
      s.samples;
    Sim.Engine.run eng;
    List.rev (read () :: !log)
end

module Model = Run (Sim.Cpu)
module Reference = Run (Cpu_ref)

let print_schedule s =
  let step { gap; demand } = Printf.sprintf "+%h:%h" gap demand in
  Printf.sprintf "cores %d speed %g observe %b samples [%s]\n%s" s.cores s.speed
    s.observe
    (String.concat "; " (List.map (Printf.sprintf "%h") s.samples))
    (String.concat "\n"
       (List.mapi
          (fun p steps ->
            Printf.sprintf "  p%d: %s" p (String.concat " " (List.map step steps)))
          s.procs))

let gen_schedule =
  let open QCheck.Gen in
  let gap = oneof [ return 0.; oneofl [ 0.25; 0.5; 1. ]; float_bound_inclusive 1.5 ] in
  let demand =
    frequency
      [
        (1, return 0.);
        (* at or below [eps]: served by a yield, never resident *)
        (1, oneofl [ 1e-13; 1e-12 ]);
        (* equal demands that finish at the same instant *)
        (3, oneofl [ 0.25; 0.5; 1. ]);
        (4, float_range 1e-6 2.);
      ]
  in
  let step = map2 (fun gap demand -> { gap; demand }) gap demand in
  map5
    (fun cores speed observe procs samples -> { cores; speed; observe; procs; samples })
    (1 -- 3)
    (oneofl [ 0.5; 1.; 1.7; 2. ])
    bool
    (list_size (1 -- 6) (list_size (1 -- 4) step))
    (list_size (0 -- 3) (float_bound_inclusive 3.))

let count = Qcheck_count.or_default 500

let prop_matches_reference =
  QCheck.Test.make ~name:"flat-array CPU = list-based reference, bit for bit"
    ~count
    (QCheck.make ~print:print_schedule gen_schedule)
    (fun s -> Model.run s = Reference.run s)

(* Three equal jobs that arrive together finish at the same instant; the
   newest must resume first, as it did when jobs were a list. *)
let test_tie_resume_order () =
  let s =
    {
      cores = 1;
      speed = 1.;
      observe = false;
      procs = List.init 3 (fun _ -> [ { gap = 0.; demand = 0.5 } ]);
      samples = [];
    }
  in
  let order =
    List.filter_map
      (function Done (p, _, _) -> Some p | Observed _ | Sample _ -> None)
      (Model.run s)
  in
  Alcotest.(check (list int)) "newest first" [ 2; 1; 0 ] order;
  Alcotest.(check bool) "same log as the reference" true (Model.run s = Reference.run s)

(* [k] equal jobs, resident together, run to completion. They finish in
   one completion event, so each vacates a slot of its own. *)
let drain ~k =
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:1 in
  for _ = 1 to k do
    Sim.Engine.spawn eng (fun () -> Sim.Cpu.consume cpu 0.5)
  done;
  Sim.Engine.run eng;
  (eng, cpu)

(* A drained CPU holds nothing of its finished jobs: every vacated
   resumer slot was cleared. Its own footprint — the words reachable from
   it but not from its engine — is the same after six jobs as after one
   (both fit the initial capacity, so the arrays are the same size). *)
let test_vacated_slots_cleared () =
  let footprint k =
    let eng, cpu = drain ~k in
    Alcotest.(check int) "all completed" k (Sim.Cpu.completed cpu);
    Alcotest.(check int) "none resident" 0 (Sim.Cpu.active_jobs cpu);
    Obj.reachable_words (Obj.repr cpu) - Obj.reachable_words (Obj.repr eng)
  in
  Alcotest.(check int) "footprint after 6 jobs = after 1" (footprint 1) (footprint 6)

(* Nothing a finished job's process held stays reachable once the run is
   over: each process keeps a fresh block live across its [consume], and
   after a full major GC every one of them is gone while the engine and
   the CPU are still alive. *)
let test_finished_jobs_collected () =
  let k = 6 in
  let eng = Sim.Engine.create () in
  let cpu = Sim.Cpu.create eng ~cores:1 in
  let held = Weak.create k in
  for i = 0 to k - 1 do
    Sim.Engine.spawn eng (fun () ->
        let block = Bytes.make 64 (Char.chr (65 + i)) in
        Weak.set held i (Some block);
        Sim.Cpu.consume cpu (0.25 *. float_of_int (1 + (i mod 3)));
        ignore (Sys.opaque_identity block : Bytes.t))
  done;
  Sim.Engine.run eng;
  Gc.full_major ();
  for i = 0 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "job %d collected" i) false (Weak.check held i)
  done;
  Alcotest.(check int) "completed" k (Sim.Cpu.completed cpu);
  Alcotest.(check int) "engine idle" 0 (Sim.Engine.pending eng)

let () =
  Alcotest.run "cpu-model"
    [
      ("reference", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
      ( "order",
        [ Alcotest.test_case "equal jobs resume newest first" `Quick test_tie_resume_order ] );
      ( "retention",
        [
          Alcotest.test_case "vacated slots are cleared" `Quick test_vacated_slots_cleared;
          Alcotest.test_case "finished jobs are collected" `Quick
            test_finished_jobs_collected;
        ] );
    ]
