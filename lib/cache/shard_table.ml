(* One node's partition of the sharded directory: a single key→meta table
   covering the keys the ring homes (or replicates) here, guarded by one
   rwlock whose acquisitions charge simulated CPU exactly like the
   replicated Directory's per-table locks. Unlike the Directory there is
   no per-owner table array — a probe takes one lock and one hash lookup
   regardless of cluster size, which is the point of sharding.

   A secondary owner index (cache-owner node → key set) makes the suspect
   purge ("drop everything cached at the crashed node j") O(|j's keys|)
   instead of a full scan. *)

type t = {
  lock : Sim.Rwlock.t;
  lock_overhead : float;
  charge_fn : float -> unit;
  entries : (string, Meta.t) Hashtbl.t;
  by_owner : (int, (string, unit) Hashtbl.t) Hashtbl.t;
}

let create ?(lock_overhead = 2e-6) ?(charge = Sim.Engine.delay) ?lock_observe
    () =
  if lock_overhead < 0. then
    invalid_arg "Shard_table.create: negative overhead";
  {
    lock = Sim.Rwlock.create ?observe:lock_observe ();
    lock_overhead;
    charge_fn = charge;
    entries = Hashtbl.create 64;
    by_owner = Hashtbl.create 8;
  }

let charge t = if t.lock_overhead > 0. then t.charge_fn t.lock_overhead

let owner_index t node =
  match Hashtbl.find_opt t.by_owner node with
  | Some set -> set
  | None ->
      let set = Hashtbl.create 16 in
      Hashtbl.replace t.by_owner node set;
      set

let index_add t (m : Meta.t) = Hashtbl.replace (owner_index t m.Meta.owner) m.Meta.key ()

let index_remove t (m : Meta.t) =
  match Hashtbl.find_opt t.by_owner m.Meta.owner with
  | None -> ()
  | Some set -> Hashtbl.remove set m.Meta.key

(* The unlocked bodies keep the owner index in step with [entries]; every
   mutation goes through one of them. *)
let insert_unlocked t (meta : Meta.t) =
  match Hashtbl.find_opt t.entries meta.Meta.key with
  | Some old when old.Meta.created > meta.Meta.created ->
      (* A newer announcement already landed (e.g. a fresh execution
         raced a handoff re-announcement); keep it. *)
      `Stale
  | Some old ->
      index_remove t old;
      Hashtbl.replace t.entries meta.Meta.key meta;
      index_add t meta;
      `Replaced old
  | None ->
      Hashtbl.replace t.entries meta.Meta.key meta;
      index_add t meta;
      `Inserted

let delete_unlocked t ?owner key =
  match Hashtbl.find_opt t.entries key with
  | None -> false
  | Some old -> (
      match owner with
      | Some node when old.Meta.owner <> node ->
          (* The delete names a stale copy (the key has since been
             re-announced by another cache owner); the live entry wins. *)
          false
      | Some _ | None ->
          index_remove t old;
          Hashtbl.remove t.entries key;
          true)

let probe t ~now key =
  Sim.Rwlock.with_rd t.lock (fun () ->
      charge t;
      match Hashtbl.find_opt t.entries key with
      | Some meta when not (Meta.expired meta ~now) -> Some meta
      | Some _ | None -> None)

let insert t meta =
  Sim.Rwlock.with_wr t.lock (fun () ->
      charge t;
      insert_unlocked t meta)

let delete t ?owner key =
  Sim.Rwlock.with_wr t.lock (fun () ->
      charge t;
      delete_unlocked t ?owner key)

let purge_owner t ~node =
  Sim.Rwlock.with_wr t.lock (fun () ->
      charge t;
      match Hashtbl.find_opt t.by_owner node with
      | None -> 0
      | Some set ->
          let n = Hashtbl.length set in
          Hashtbl.iter (fun key () -> Hashtbl.remove t.entries key) set;
          Hashtbl.remove t.by_owner node;
          n)

let prune t ~keep =
  let victims =
    Hashtbl.fold
      (fun key meta acc -> if keep key then acc else meta :: acc)
      t.entries []
  in
  List.iter
    (fun (m : Meta.t) ->
      index_remove t m;
      Hashtbl.remove t.entries m.Meta.key)
    victims;
  List.length victims

let reset t =
  let n = Hashtbl.length t.entries in
  Hashtbl.reset t.entries;
  Hashtbl.reset t.by_owner;
  n

let find t key = Hashtbl.find_opt t.entries key

let entries t = Hashtbl.fold (fun _ m acc -> m :: acc) t.entries []
let length t = Hashtbl.length t.entries

let lock_acquisitions t =
  (Sim.Rwlock.rd_acquisitions t.lock, Sim.Rwlock.wr_acquisitions t.lock)
