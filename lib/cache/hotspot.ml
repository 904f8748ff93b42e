(* Sliding-window hotspot detector, run by each shard home over the
   forwarded lookups it serves. Each key's lookup rate is a Rate counter
   (two-bucket sliding window).

   Hysteresis: a key promotes when its rate reaches [threshold] and
   demotes (in [sweep]) only when it falls below [threshold / 2], so a
   key oscillating around the threshold does not flap its replica set
   with every bucket turn. *)

type t = {
  threshold : float;  (* lookups/s; > 0 *)
  window : Rate.window;
  keys : (string, Rate.t) Hashtbl.t;
  hot : (string, unit) Hashtbl.t;
}

let create ~threshold ~window =
  if threshold <= 0. then
    invalid_arg "Hotspot.create: threshold must be positive";
  if window <= 0. then invalid_arg "Hotspot.create: window must be positive";
  {
    threshold;
    window = Rate.window window;
    keys = Hashtbl.create 64;
    hot = Hashtbl.create 16;
  }

let record t ~now key =
  let c =
    match Hashtbl.find_opt t.keys key with
    | Some c -> c
    | None ->
        let c = Rate.create ~now in
        Hashtbl.replace t.keys key c;
        c
  in
  Rate.note t.window c ~now;
  if (not (Hashtbl.mem t.hot key)) && Rate.rate t.window c ~now >= t.threshold
  then begin
    Hashtbl.replace t.hot key ();
    `Promoted
  end
  else `Noted

let is_hot t key = Hashtbl.mem t.hot key

let sweep t ~now =
  let cooled =
    Hashtbl.fold
      (fun key () acc ->
        match Hashtbl.find_opt t.keys key with
        | None -> key :: acc
        | Some c ->
            if Rate.rate t.window c ~now < t.threshold /. 2. then key :: acc
            else acc)
      t.hot []
  in
  let cooled = List.sort compare cooled in
  List.iter (Hashtbl.remove t.hot) cooled;
  (* Garbage-collect counters that have gone fully cold, so the tracker's
     memory follows the working set rather than the key universe. *)
  let dead =
    Hashtbl.fold
      (fun key c acc ->
        if (not (Hashtbl.mem t.hot key)) && Rate.lapsed t.window c ~now then
          key :: acc
        else acc)
      t.keys []
  in
  List.iter (Hashtbl.remove t.keys) dead;
  cooled

let forget t key =
  Hashtbl.remove t.keys key;
  if Hashtbl.mem t.hot key then begin
    Hashtbl.remove t.hot key;
    true
  end
  else false

let clear t =
  Hashtbl.reset t.keys;
  Hashtbl.reset t.hot

let hot_count t = Hashtbl.length t.hot
