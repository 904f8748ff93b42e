type entry = { meta : Meta.t; body : Http.Body.t }

type slot = {
  entry : entry;
  mutable last_access : float;
  mutable hits : int;
  inserted : float;
  mutable version : int;  (* bumped on every touch; stale heap items skip *)
  mutable index : int;  (* position in [order], for O(1) random eviction *)
}

type heap_item = { priority : float; h_version : int; h_key : string }

type t = {
  capacity : int;
  pol : Policy.t;
  clock : unit -> float;
  rng : Sim.Rng.t option;
  table : (string, slot) Hashtbl.t;
  heap : heap_item Sim.Pqueue.t;
  mutable order : string array;  (* dense key array for Random *)
  mutable n_keys : int;
  mutable gdsf_clock : float;
  mutable vgen : int;
      (* store-global version generator: heap items must never match a
         slot they were not pushed for, even across remove/re-insert of
         the same key *)
  mutable expiry_floor : float;
      (* no stored entry expires before this instant: lowered by every
         insert with a TTL, raised only by a full [purge_expired] scan,
         so removals leave it low (stale but still a lower bound) *)
  stats : Stats.t;
}

(* Equal priorities (common under LFU) break towards the least recently
   touched entry: versions are allocated monotonically per touch/insert. *)
let cmp_item a b =
  let c = Float.compare a.priority b.priority in
  if c <> 0 then c else Int.compare a.h_version b.h_version

let create ~capacity ~policy ~clock ?rng () =
  if capacity < 1 then invalid_arg "Store.create: capacity must be >= 1";
  (match (policy, rng) with
  | Policy.Random, None ->
      invalid_arg "Store.create: Random policy needs an rng"
  | _ -> ());
  {
    capacity;
    pol = policy;
    clock;
    rng;
    table = Hashtbl.create (Stdlib.min capacity 4096);
    heap = Sim.Pqueue.create ~cmp:cmp_item;
    order = [||];
    n_keys = 0;
    gdsf_clock = 0.;
    vgen = 0;
    expiry_floor = Float.infinity;
    stats = Stats.create ();
  }

let next_version t =
  t.vgen <- t.vgen + 1;
  t.vgen

let slot_priority t slot =
  Policy.priority t.pol ~clock:t.gdsf_clock ~meta:slot.entry.meta
    ~access:
      {
        Policy.last_access = slot.last_access;
        hits = slot.hits;
        inserted = slot.inserted;
      }

let push_heap t slot =
  if t.pol <> Policy.Random then
    Sim.Pqueue.push t.heap
      {
        priority = slot_priority t slot;
        h_version = slot.version;
        h_key = slot.entry.meta.Meta.key;
      }

(* Dense key array bookkeeping (swap-remove). *)
let order_add t key =
  if t.n_keys = Array.length t.order then begin
    let ncap = Stdlib.max 16 (2 * Array.length t.order) in
    let narr = Array.make ncap "" in
    Array.blit t.order 0 narr 0 t.n_keys;
    t.order <- narr
  end;
  t.order.(t.n_keys) <- key;
  t.n_keys <- t.n_keys + 1;
  t.n_keys - 1

let order_remove t idx =
  let last = t.n_keys - 1 in
  if idx <> last then begin
    let moved = t.order.(last) in
    t.order.(idx) <- moved;
    (match Hashtbl.find_opt t.table moved with
    | Some s -> s.index <- idx
    | None -> assert false)
  end;
  t.n_keys <- last

let delete_slot t slot =
  Hashtbl.remove t.table slot.entry.meta.Meta.key;
  order_remove t slot.index;
  slot.version <- next_version t (* invalidate heap items *)

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some slot ->
      delete_slot t slot;
      true

let remove_matching t pred =
  let victims =
    Hashtbl.fold
      (fun key slot acc -> if pred key then slot :: acc else acc)
      t.table []
  in
  List.map
    (fun slot ->
      delete_slot t slot;
      slot.entry.meta)
    victims

let expired_now t slot = Meta.expired slot.entry.meta ~now:(t.clock ())

let drop_expired t slot =
  delete_slot t slot;
  t.stats.Stats.expirations <- t.stats.Stats.expirations + 1

let peek t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some slot ->
      if expired_now t slot then begin
        drop_expired t slot;
        None
      end
      else Some slot.entry

let lookup t key =
  match Hashtbl.find_opt t.table key with
  | None ->
      t.stats.Stats.misses <- t.stats.Stats.misses + 1;
      None
  | Some slot ->
      if expired_now t slot then begin
        drop_expired t slot;
        t.stats.Stats.misses <- t.stats.Stats.misses + 1;
        None
      end
      else begin
        slot.last_access <- t.clock ();
        slot.hits <- slot.hits + 1;
        slot.version <- next_version t;
        push_heap t slot;
        t.stats.Stats.hits <- t.stats.Stats.hits + 1;
        Some slot.entry
      end

(* Pop heap items until one still describes a live, untouched slot. *)
let rec heap_victim t =
  match Sim.Pqueue.pop t.heap with
  | None -> None
  | Some item -> (
      match Hashtbl.find_opt t.table item.h_key with
      | Some slot when slot.version = item.h_version -> Some (item, slot)
      | Some _ | None -> heap_victim t)

let evict_one t =
  let victim =
    match t.pol with
    | Policy.Random -> (
        match t.rng with
        | None -> assert false
        | Some rng ->
            if t.n_keys = 0 then None
            else
              let idx = Sim.Rng.int rng t.n_keys in
              Hashtbl.find_opt t.table t.order.(idx))
    | _ -> (
        match heap_victim t with
        | None -> None
        | Some (item, slot) ->
            if Policy.uses_clock t.pol then t.gdsf_clock <- item.priority;
            Some slot)
  in
  match victim with
  | None -> None
  | Some slot ->
      delete_slot t slot;
      t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
      Some slot.entry.meta

let insert_body t meta body =
  let key = meta.Meta.key in
  (* Replacing an existing entry never needs eviction. *)
  ignore (remove t key : bool);
  let evicted = ref [] in
  while Hashtbl.length t.table >= t.capacity do
    match evict_one t with
    | Some m -> evicted := m :: !evicted
    | None -> assert false (* table non-empty implies a victim exists *)
  done;
  let now = t.clock () in
  let slot =
    {
      entry = { meta; body };
      last_access = now;
      hits = 0;
      inserted = now;
      version = next_version t;
      index = -1;
    }
  in
  slot.index <- order_add t key;
  Hashtbl.add t.table key slot;
  (match meta.Meta.expires with
  | Some e when e < t.expiry_floor -> t.expiry_floor <- e
  | Some _ | None -> ());
  push_heap t slot;
  t.stats.Stats.inserts <- t.stats.Stats.inserts + 1;
  List.rev !evicted

let insert t meta body = insert_body t meta (Http.Body.of_string body)

(* The purge daemon calls this every [purge_interval] on every node;
   while the clock is below [expiry_floor] nothing can have expired, so
   it returns without visiting the table. A scan that does run also
   recomputes the floor from the survivors. *)
let purge_expired t =
  if t.clock () < t.expiry_floor then []
  else begin
    let floor = ref Float.infinity in
    let victims =
      Hashtbl.fold
        (fun _ slot acc ->
          if expired_now t slot then slot :: acc
          else begin
            (match slot.entry.meta.Meta.expires with
            | Some e when e < !floor -> floor := e
            | Some _ | None -> ());
            acc
          end)
        t.table []
    in
    t.expiry_floor <- !floor;
    List.map
      (fun slot ->
        drop_expired t slot;
        slot.entry.meta)
      victims
  end

let clear t =
  let n = Hashtbl.length t.table in
  let victims = Hashtbl.fold (fun _ slot acc -> slot :: acc) t.table [] in
  List.iter (fun slot -> delete_slot t slot) victims;
  Sim.Pqueue.clear t.heap;
  n

let mem t key = match peek t key with Some _ -> true | None -> false
let length t = Hashtbl.length t.table

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort String.compare

(* Candidates for proactive refresh: live entries whose expiry falls
   within (now, now + horizon], with the access statistics the refresh
   daemon filters on. Read-only — no touch, no stats — and sorted by
   (expiry, key) so iteration order is deterministic regardless of
   hash-table layout. *)
type candidate = {
  c_entry : entry;
  c_last_access : float;
  c_hits : int;
  c_expires : float;
}

let expiring t ~now ~horizon =
  Hashtbl.fold
    (fun _ slot acc ->
      match slot.entry.meta.Meta.expires with
      | Some e when e > now && e -. now <= horizon ->
          {
            c_entry = slot.entry;
            c_last_access = slot.last_access;
            c_hits = slot.hits;
            c_expires = e;
          }
          :: acc
      | Some _ | None -> acc)
    t.table []
  |> List.sort (fun a b ->
         let c = Float.compare a.c_expires b.c_expires in
         if c <> 0 then c
         else
           String.compare a.c_entry.meta.Meta.key b.c_entry.meta.Meta.key)

let stats t = t.stats
