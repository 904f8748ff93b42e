type node_profile = { mtbf : float; mttr : float }
type schedule = (float * float) list

type partition = {
  pname : string;
  groups : int list list;
  cut_at : float;
  heal_at : float;
}

type churn = {
  churn_rate : float;
  churn_downtime : float;
  churn_poisson : bool;
}

let churn ?(rate = 0.1) ?(downtime = 2.0) ?(poisson = true) () =
  { churn_rate = rate; churn_downtime = downtime; churn_poisson = poisson }

type profile = {
  drop : float;
  node : node_profile option;
  node_schedules : (int * schedule) list;
  partitions : partition list;
  churn : churn option;
  horizon : float;
}

let make ?(drop = 0.) ?node ?(node_schedules = []) ?(partitions = []) ?churn
    ?(horizon = 3600.) () =
  { drop; node; node_schedules; partitions; churn; horizon }

let none = make ()

let is_lossy p =
  p.drop > 0.
  || p.node <> None
  || List.exists (fun (_, s) -> s <> []) p.node_schedules
  || p.partitions <> []
  || p.churn <> None

let validate p =
  let check cond msg = if not cond then invalid_arg ("Fault: " ^ msg) in
  check (p.drop >= 0. && p.drop <= 1.) "link drop must be in [0,1]";
  (match p.node with
  | Some n ->
      check (n.mtbf > 0.) "node mtbf must be positive";
      check (n.mttr > 0.) "node mttr must be positive"
  | None -> ());
  List.iter
    (fun (node, sched) ->
      check (node >= 0) "scheduled node id must be >= 0";
      let rec go prev_up = function
        | [] -> ()
        | (down_at, up_at) :: rest ->
            check (down_at > 0.) "schedule times must be positive";
            check (up_at > down_at) "schedule intervals need up_at > down_at";
            check (down_at >= prev_up) "schedule intervals must not overlap";
            go up_at rest
      in
      go 0. sched)
    p.node_schedules;
  List.iter
    (fun part ->
      check (part.cut_at >= 0.) "partition cut_at must be >= 0";
      check (part.heal_at > part.cut_at) "partition needs heal_at > cut_at";
      check (part.groups <> []) "partition needs at least one group";
      let seen = Hashtbl.create 16 in
      List.iter
        (fun group ->
          check (group <> []) "partition groups must be non-empty";
          List.iter
            (fun node ->
              check (node >= 0) "partition node ids must be >= 0";
              check
                (not (Hashtbl.mem seen node))
                "partition groups must be disjoint";
              Hashtbl.add seen node ())
            group)
        part.groups)
    p.partitions;
  (match p.churn with
  | Some c ->
      check (c.churn_rate > 0.) "churn rate must be positive";
      check (c.churn_downtime > 0.) "churn downtime must be positive"
  | None -> ());
  check (p.horizon > 0.) "horizon must be positive";
  (* The schedule generators step a clock up to the horizon; a step that
     vanishes next to it would never get there. *)
  check (Float.is_finite p.horizon) "horizon must be finite";
  let advances step = p.horizon +. step > p.horizon in
  (match p.node with
  | Some n ->
      check (advances (n.mtbf +. n.mttr))
        "node mtbf + mttr must advance the clock at the horizon"
  | None -> ());
  match p.churn with
  | Some c ->
      check (advances (1. /. c.churn_rate))
        "churn interval 1/rate must advance the clock at the horizon"
  | None -> ()

type action = Deliver | Drop

type t = {
  drop : float;  (* per-link drop probability *)
  schedules : schedule array;  (* index = node id, [||] entries = never down *)
  parts : partition array;  (* in profile order *)
  (* group_of.(p) maps a node id to its group index in partition p;
     endpoints beyond the array (or unlisted) share the implicit group -1. *)
  group_of : int array array;
  rng : Rng.t;  (* per-message draws; untouched by an all-zero profile *)
  mutable n_drops : int;
  mutable n_drops_down : int;
  mutable n_drops_partition : int;
}

(* Alternate exponential up-times (mean mtbf) and downtimes (mean mttr)
   until the horizon; crash instants beyond it are not generated. *)
let gen_schedule rng (np : node_profile) ~horizon =
  let rec go t acc =
    let down_at = t +. Dist.exponential rng ~mean:np.mtbf in
    if down_at >= horizon then List.rev acc
    else
      let up_at = down_at +. Dist.exponential rng ~mean:np.mttr in
      go up_at ((down_at, up_at) :: acc)
  in
  go 0. []

(* Union of two well-formed interval lists, coalescing overlapping or
   touching intervals (a crash instant coinciding with a restart instant
   would race in the event queue). *)
let merge_schedule a b =
  let all = List.sort compare (a @ b) in
  let rec go acc = function
    | [] -> List.rev acc
    | (d, u) :: rest -> (
        match acc with
        | (pd, pu) :: acc' when d <= pu ->
            go ((pd, Stdlib.max pu u) :: acc') rest
        | _ -> go ((d, u) :: acc) rest)
  in
  go [] all

(* Rolling churn: one cluster-wide leave stream at [churn_rate] events/s
   (exponential gaps when [churn_poisson], a fixed period otherwise),
   dealt round-robin over the nodes so membership keeps turning over
   instead of crashing in bursts. Downtimes follow the same law with mean
   [churn_downtime]. A node whose previous downtime is still running when
   its next leave arrives goes down again the instant it comes back. *)
let gen_churn rng (c : churn) ~nodes ~horizon =
  let rev = Array.make nodes [] in
  if nodes > 0 then begin
    let last_up = Array.make nodes 0. in
    let draw mean =
      if c.churn_poisson then Dist.exponential rng ~mean else mean
    in
    let rec go k t =
      let t = t +. draw (1. /. c.churn_rate) in
      if t < horizon then begin
        let node = k mod nodes in
        let down_at = Stdlib.max t last_up.(node) in
        let up_at = down_at +. draw c.churn_downtime in
        rev.(node) <- (down_at, up_at) :: rev.(node);
        last_up.(node) <- up_at;
        go (k + 1) t
      end
    in
    go 0 0.
  end;
  Array.map List.rev rev

let create p ~rng ~nodes =
  validate p;
  if nodes < 0 then invalid_arg "Fault.create: nodes must be >= 0";
  (* Split a dedicated generator per node first (in node order) so crash
     schedules depend only on the seed, not on message traffic. *)
  let schedules =
    Array.init nodes (fun node ->
        let node_rng = Rng.split rng in
        match List.assoc_opt node p.node_schedules with
        | Some sched -> sched
        | None -> (
            match p.node with
            | Some np -> gen_schedule node_rng np ~horizon:p.horizon
            | None -> []))
  in
  (* The churn generator splits only when churn is configured, after the
     per-node splits: a churn-free profile draws exactly as before. *)
  (match p.churn with
  | None -> ()
  | Some c ->
      let churn_rng = Rng.split rng in
      let churn_scheds = gen_churn churn_rng c ~nodes ~horizon:p.horizon in
      Array.iteri
        (fun node extra ->
          if extra <> [] then
            schedules.(node) <- merge_schedule schedules.(node) extra)
        churn_scheds);
  let parts = Array.of_list p.partitions in
  let group_of =
    Array.map
      (fun part ->
        let top =
          List.fold_left
            (fun acc g -> List.fold_left Stdlib.max acc g)
            (-1) part.groups
        in
        let map = Array.make (top + 1) (-1) in
        List.iteri
          (fun gi group -> List.iter (fun node -> map.(node) <- gi) group)
          part.groups;
        map)
      parts
  in
  {
    drop = p.drop;
    schedules;
    parts;
    group_of;
    rng;
    n_drops = 0;
    n_drops_down = 0;
    n_drops_partition = 0;
  }

let node_down t ~node ~now =
  node >= 0
  && node < Array.length t.schedules
  && List.exists
       (fun (down_at, up_at) -> now >= down_at && now < up_at)
       t.schedules.(node)

let schedule t ~node =
  if node < 0 || node >= Array.length t.schedules then []
  else t.schedules.(node)

let group t ~part ~node =
  let map = t.group_of.(part) in
  if node < 0 || node >= Array.length map then -1 else map.(node)

let partitioned t ~src ~dst ~now =
  let n = Array.length t.parts in
  let rec go i =
    i < n
    && ((let p = t.parts.(i) in
         now >= p.cut_at && now < p.heal_at
         && group t ~part:i ~node:src <> group t ~part:i ~node:dst)
       || go (i + 1))
  in
  go 0

let partitions t = Array.to_list t.parts

let action t ~src ~dst ~now =
  if node_down t ~node:src ~now || node_down t ~node:dst ~now then begin
    t.n_drops <- t.n_drops + 1;
    t.n_drops_down <- t.n_drops_down + 1;
    Drop
  end
  else if Array.length t.parts > 0 && partitioned t ~src ~dst ~now then begin
    t.n_drops <- t.n_drops + 1;
    t.n_drops_partition <- t.n_drops_partition + 1;
    Drop
  end
  else if t.drop > 0. && Rng.float t.rng < t.drop then begin
    t.n_drops <- t.n_drops + 1;
    Drop
  end
  else Deliver

let drops t = t.n_drops
let drops_down t = t.n_drops_down
let drops_partition t = t.n_drops_partition
let drops_link t = t.n_drops - t.n_drops_down - t.n_drops_partition
