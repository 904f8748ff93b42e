(* Domain-pool map over independent simulation points.

   The engine is deterministic and entirely self-contained per run (its
   event queue, clock, RNGs and metrics are all per-instance, and the
   "current engine" slot is domain-local), so sweeps — one seed or one
   ablation point per run — are embarrassingly parallel. Workers claim
   indices from a shared atomic counter and write results into their
   claimed slot, so results are merged by point order and the output is
   identical to the sequential map regardless of jobs or scheduling. *)

let default_jobs () = Domain.recommended_domain_count ()

exception Worker of exn * Printexc.raw_backtrace

let map ?(jobs = 1) f items =
  let n = Array.length items in
  let jobs = Stdlib.min (Stdlib.max 1 jobs) (Stdlib.max 1 n) in
  if jobs = 1 then
    Array.map
      (fun x ->
        try f x
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Printexc.raise_with_backtrace (Worker (e, bt)) bt)
      items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failed = None then begin
          (match f items.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
              (* Keep the first failure; losers of the race just stop. *)
              ignore
                (Atomic.compare_and_set failed None
                   (Some (e, Printexc.get_raw_backtrace ()))
                  : bool));
          loop ()
        end
      in
      loop ()
    in
    let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join others;
    (match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace (Worker (e, bt)) bt
    | None -> ());
    Array.map
      (function Some v -> v | None -> assert false (* all slots filled *))
      results
  end

let map_list ?jobs f items =
  Array.to_list (map ?jobs f (Array.of_list items))
