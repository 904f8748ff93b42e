type entry = { meta : Meta.t; body : Http.Body.t }

type slot = {
  entry : entry;
  mutable last_access : float;
  mutable hits : int;
  inserted : float;
  elt : string Sim.Pqueue.Indexed.elt;
      (* the key's place in [heap]; [no_elt] under Random *)
  mutable index : int;  (* Random: position in [order] *)
}

type t = {
  capacity : int;
  pol : Policy.t;
  clock : unit -> float;
  rng : Sim.Rng.t option;
  mutable table : (string, slot) Hashtbl.t;  (* [no_slots] until an insert *)
  heap : string Sim.Pqueue.Indexed.t;
      (* eviction order of every entry but Random's: each entry's element
         is keyed by (priority, touch) as of its last touch *)
  prio : Sim.Pqueue.cell;
      (* the priority [rekey] sets, or the victim's [heap_victim] reads *)
  mutable touches : int;  (* store-wide touch counter *)
  mutable order : string array;  (* Random: dense key array *)
  mutable n_keys : int;
  mutable gdsf_clock : float;
  mutable expiry_floor : float;
      (* no stored entry expires before this instant: lowered by every
         insert with a TTL, raised only by a full [purge_expired] scan,
         so removals leave it low (stale but still a lower bound) *)
  stats : Stats.t;
}

(* A store's table is built at its first insert, at the size an eager
   build gives it: the bucket count fixes the order [purge_expired]
   returns its victims in. Until then [table] is [no_slots], which reads
   as empty. Nothing writes or traverses it (a [Hashtbl] traversal flips
   a flag in the table it walks), so every store, on any domain, shares
   it. *)
let no_slots : (string, slot) Hashtbl.t = Hashtbl.create 1

let fold_slots f t acc =
  if t.table == no_slots then acc else Hashtbl.fold f t.table acc

(* Random's entries are in no heap, so they share this element, which
   nothing queues or writes; stores on any domain may share it. *)
let no_elt = Sim.Pqueue.Indexed.elt ""

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
    table = no_slots;
    heap = Sim.Pqueue.Indexed.create ~dummy:"" ();
    prio = { Sim.Pqueue.time = 0. };
    touches = 0;
    order = [||];
    n_keys = 0;
    gdsf_clock = 0.;
    expiry_floor = Float.infinity;
    stats = Stats.create ();
  }

(* Re-key [slot]'s element by its priority now. Equal priorities (common
   under LFU) break towards the least recently touched entry: every
   touch and insert takes the next [touches] value, so the order is
   total. *)
let rekey t slot =
  Policy.priority t.pol t.prio ~clock:t.gdsf_clock ~meta:slot.entry.meta
    ~last_access:slot.last_access ~hits:slot.hits ~inserted:slot.inserted;
  t.touches <- t.touches + 1;
  Sim.Pqueue.Indexed.set t.heap slot.elt t.prio ~seq:t.touches

(* Random's dense key array (swap-remove). *)
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
  match t.pol with
  | Policy.Random -> order_remove t slot.index
  | _ -> Sim.Pqueue.Indexed.remove t.heap slot.elt

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some slot ->
      delete_slot t slot;
      true

let remove_matching t pred =
  let victims =
    fold_slots
      (fun key slot acc -> if pred key then slot :: acc else acc)
      t []
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
        if t.pol <> Policy.Random then rekey t slot;
        t.stats.Stats.hits <- t.stats.Stats.hits + 1;
        Some slot.entry
      end

(* Every entry of a heap policy is queued, so a non-empty store's heap
   is non-empty. The victim's priority becomes GDSF's clock; other
   policies never read it, so their pops box no float. *)
let heap_victim t =
  if Policy.uses_clock t.pol then begin
    Sim.Pqueue.Indexed.read_min_time t.heap t.prio;
    t.gdsf_clock <- t.prio.Sim.Pqueue.time
  end;
  Hashtbl.find_opt t.table
    (Sim.Pqueue.Indexed.value (Sim.Pqueue.Indexed.pop_min t.heap))

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
    | _ -> heap_victim t
  in
  match victim with
  | None -> None
  | Some slot ->
      delete_slot t slot;
      t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
      Some slot.entry.meta

let insert_body t meta body =
  if t.table == no_slots then
    t.table <- Hashtbl.create (Stdlib.min t.capacity 4096);
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
  let random = t.pol = Policy.Random in
  let slot =
    {
      entry = { meta; body };
      last_access = now;
      hits = 0;
      inserted = now;
      elt = (if random then no_elt else Sim.Pqueue.Indexed.elt key);
      index = (if random then order_add t key else -1);
    }
  in
  Hashtbl.add t.table key slot;
  (match meta.Meta.expires with
  | Some e when e < t.expiry_floor -> t.expiry_floor <- e
  | Some _ | None -> ());
  if not random then rekey t slot;
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
      fold_slots
        (fun _ slot acc ->
          if expired_now t slot then slot :: acc
          else begin
            (match slot.entry.meta.Meta.expires with
            | Some e when e < !floor -> floor := e
            | Some _ | None -> ());
            acc
          end)
        t []
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
  let victims = fold_slots (fun _ slot acc -> slot :: acc) t [] in
  List.iter (fun slot -> delete_slot t slot) victims;
  n

let mem t key = match peek t key with Some _ -> true | None -> false
let length t = Hashtbl.length t.table

let keys t =
  fold_slots (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

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
  fold_slots
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
    t []
  |> List.sort (fun a b ->
         let c = Float.compare a.c_expires b.c_expires in
         if c <> 0 then c
         else
           String.compare a.c_entry.meta.Meta.key b.c_entry.meta.Meta.key)

let stats t = t.stats
