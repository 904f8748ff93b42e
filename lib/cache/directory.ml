type granularity = Global | Per_table | Per_entry

type table = {
  lock : Sim.Rwlock.t;  (* the table's lock under Per_table *)
  mutable entries : (string, Meta.t) Hashtbl.t;
      (* [no_entries] until the table's first write *)
  mutable digest_xor : int;
      (* xor of [Meta.hash] over [entries], maintained incrementally so
         [digest] is O(1) instead of re-hashing every entry. *)
}

(* Most of a large replicated cluster's n² tables are never touched, so
   a table and its lock are built at its first probe or write, and its
   entries at its first write, at the size an eager build gives them:
   the bucket count fixes the order [entries] lists them in. Until then
   [tables] holds [untouched], which reads as empty. Nothing writes,
   locks or traverses the placeholders (a [Hashtbl] traversal flips a
   flag in the table it walks), so every directory, on any domain,
   shares them. *)
let no_entries : (string, Meta.t) Hashtbl.t = Hashtbl.create 1

let untouched =
  { lock = Sim.Rwlock.create (); entries = no_entries; digest_xor = 0 }

type t = {
  gran : granularity;
  lock_overhead : float;
  scan_cost : float;
  charge_fn : float -> unit;
  lock_observe :
    (kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) option;
  global_lock : Sim.Rwlock.t;  (* used under Global *)
  tables : table array;
  (* Per_entry is modelled by charging one acquisition per entry scanned;
     the per-entry locks themselves would never contend in our serial probe,
     so only their cost is simulated. We still take the table lock to keep
     exclusion correct. *)
  mutable extra_rd : int;
  hints : (string, int) Hashtbl.t option;
      (* key -> bitmask of tables hinted to hold the key. Advisory only:
         a set bit may be stale (expired/deleted entry), a clear bit may
         miss a live one; lookups always fall back to the full scan. *)
  mutable hint_saved : int;  (* table probes skipped thanks to hints *)
  mutable hint_false : int;  (* lookups where every hinted probe missed *)
}

let create ?(granularity = Per_table) ?(lock_overhead = 2e-6) ?(scan_cost = 0.)
    ?(charge = Sim.Engine.delay) ?(hints = false) ?lock_observe ~nodes () =
  if nodes < 1 then invalid_arg "Directory.create: nodes must be >= 1";
  if lock_overhead < 0. then invalid_arg "Directory.create: negative overhead";
  if scan_cost < 0. then invalid_arg "Directory.create: negative scan cost";
  if hints && nodes > Sys.int_size - 2 then
    invalid_arg "Directory.create: hint bitmask cannot cover that many nodes";
  {
    gran = granularity;
    lock_overhead;
    scan_cost;
    charge_fn = charge;
    lock_observe;
    global_lock = Sim.Rwlock.create ?observe:lock_observe ();
    tables = Array.make nodes untouched;
    extra_rd = 0;
    hints = (if hints then Some (Hashtbl.create 256) else None);
    hint_saved = 0;
    hint_false = 0;
  }

let check_node t node =
  if node < 0 || node >= Array.length t.tables then
    invalid_arg "Directory: node out of range"

(* A single acquisition passes [lock_overhead] itself (1. *. x = x
   exactly), which saves boxing a fresh float on the common path. *)
let charge t n =
  if n > 0 && t.lock_overhead > 0. then
    t.charge_fn
      (if n = 1 then t.lock_overhead else float_of_int n *. t.lock_overhead)

(* [node]'s table, built on first use: a probe or write needs its
   lock. *)
let table t node =
  let tbl = t.tables.(node) in
  if tbl != untouched then tbl
  else begin
    let tbl =
      {
        lock = Sim.Rwlock.create ?observe:t.lock_observe ();
        entries = no_entries;
        digest_xor = 0;
      }
    in
    t.tables.(node) <- tbl;
    tbl
  end

let fold_entries f tbl acc =
  if tbl.entries == no_entries then acc else Hashtbl.fold f tbl.entries acc

let hint_add t ~node key =
  match t.hints with
  | None -> ()
  | Some h ->
      let mask = Option.value (Hashtbl.find_opt h key) ~default:0 in
      Hashtbl.replace h key (mask lor (1 lsl node))

let hint_remove t ~node key =
  match t.hints with
  | None -> ()
  | Some h -> (
      match Hashtbl.find_opt h key with
      | None -> ()
      | Some mask ->
          let mask = mask land lnot (1 lsl node) in
          if mask = 0 then Hashtbl.remove h key
          else Hashtbl.replace h key mask)

(* Drop [node]'s bit from every hint; used when a whole table is wiped. *)
let hint_clear_node t ~node tbl =
  match t.hints with
  | None -> ()
  | Some _ -> Hashtbl.iter (fun key _ -> hint_remove t ~node key) tbl.entries

(* Time spent examining the probed table, charged while the lock is held. *)
let scan_charge t tbl =
  if t.scan_cost > 0. then
    t.charge_fn
      (float_of_int (Stdlib.max 1 (Hashtbl.length tbl.entries)) *. t.scan_cost)

let unlock lock ~write =
  if write then Sim.Rwlock.wr_unlock lock else Sim.Rwlock.rd_unlock lock

(* The one locked path of every table access: take [tbl]'s protection
   for reading or writing, charge the lock operations and the scan while
   holding it, run [body t tbl a b], and release the lock even if the
   body raises. The lock-operation cost is charged under the lock (the
   probe scans the table under its lock), so a single global lock
   serialises all that scan time — the contention the paper's §4.2
   argument predicts. [body] is a toplevel function with its arguments
   passed beside it, so a probe allocates no closure. *)
let locked t tbl ~write body a b =
  let lock =
    match t.gran with Global -> t.global_lock | Per_table | Per_entry -> tbl.lock
  in
  let acquisitions =
    match t.gran with
    | Per_entry when not write ->
        (* One acquisition per entry scanned in this probe. *)
        let scanned = Stdlib.max 1 (Hashtbl.length tbl.entries) in
        t.extra_rd <- t.extra_rd + scanned - 1;
        scanned
    | Global | Per_table | Per_entry -> 1
  in
  if write then Sim.Rwlock.wr_lock lock else Sim.Rwlock.rd_lock lock;
  match
    charge t acquisitions;
    scan_charge t tbl;
    body t tbl a b
  with
  | v ->
      unlock lock ~write;
      v
  | exception e ->
      unlock lock ~write;
      raise e

let find_live _ tbl now key =
  match Hashtbl.find_opt tbl.entries key with
  | Some meta as hit when not (Meta.expired meta ~now) -> hit
  | Some _ | None -> None

let probe t tbl ~now key = locked t tbl ~write:false find_live now key

(* Position [i] of [self]'s probe chain: [self] itself, then the other
   node ids in index order. *)
let probe_at ~self i = if i = 0 then self else if i <= self then i - 1 else i

(* Scan [self]'s probe chain from position [i], skipping any table whose
   bit is set in [skip] (already probed). With [rehint], a hit's table is
   hinted again — the repair after a false hint. *)
let rec scan_order t ~self ~now key i ~skip ~rehint =
  if i >= Array.length t.tables then None
  else
    let node = probe_at ~self i in
    if skip land (1 lsl node) <> 0 then
      scan_order t ~self ~now key (i + 1) ~skip ~rehint
    else
      match probe t (table t node) ~now key with
      | Some _ as hit ->
          if rehint then hint_add t ~node key;
          hit
      | None -> scan_order t ~self ~now key (i + 1) ~skip ~rehint

(* Probe only the hinted tables in [mask], in probe-chain order. On a hit
   we saved every un-hinted table that precedes it in the chain; if every
   hinted probe misses, the hint was false and the full scan (minus
   tables already probed) takes over. *)
let rec scan_hinted t h ~self ~now key ~mask i probed =
  if i >= Array.length t.tables then begin
    t.hint_false <- t.hint_false + 1;
    (* Every hinted table was probed and missed, so the whole mask is
       stale (expired entries, or an owner change after a handoff). Drop
       it — otherwise every future lookup of this key would pay the
       false-hint fallback again — and re-hint wherever the fallback scan
       finds the key now. *)
    Hashtbl.remove h key;
    scan_order t ~self ~now key 0 ~skip:mask ~rehint:true
  end
  else
    let node = probe_at ~self i in
    if mask land (1 lsl node) = 0 then
      scan_hinted t h ~self ~now key ~mask (i + 1) probed
    else
      match probe t (table t node) ~now key with
      | Some _ as hit ->
          t.hint_saved <- t.hint_saved + (i + 1 - (probed + 1));
          hit
      | None -> scan_hinted t h ~self ~now key ~mask (i + 1) (probed + 1)

let lookup_from t ~self ~now key =
  check_node t self;
  match t.hints with
  | None -> scan_order t ~self ~now key 0 ~skip:0 ~rehint:false
  | Some h -> (
      match Hashtbl.find_opt h key with
      | None | Some 0 ->
          (* No hint: the key should be nowhere, but hints are advisory,
             so fall back to the full ordered scan. *)
          scan_order t ~self ~now key 0 ~skip:0 ~rehint:false
      | Some mask -> scan_hinted t h ~self ~now key ~mask 0 0)

let lookup t ~now key = lookup_from t ~self:0 ~now key

(* The unlocked bodies below keep [digest_xor] and the hint index in step
   with [entries]; every mutation of a table goes through one of them. *)
let insert_unlocked t tbl ~node meta =
  if tbl.entries == no_entries then tbl.entries <- Hashtbl.create 64;
  (match Hashtbl.find_opt tbl.entries meta.Meta.key with
  | Some old -> tbl.digest_xor <- tbl.digest_xor lxor old.Meta.hash
  | None -> ());
  tbl.digest_xor <- tbl.digest_xor lxor meta.Meta.hash;
  Hashtbl.replace tbl.entries meta.Meta.key meta;
  hint_add t ~node meta.Meta.key

let delete_unlocked t tbl ~node key =
  match Hashtbl.find_opt tbl.entries key with
  | Some old ->
      tbl.digest_xor <- tbl.digest_xor lxor old.Meta.hash;
      Hashtbl.remove tbl.entries key;
      hint_remove t ~node key;
      true
  | None -> false

let wipe_unlocked t tbl ~node =
  if tbl.entries == no_entries then 0
  else begin
    let n = Hashtbl.length tbl.entries in
    hint_clear_node t ~node tbl;
    Hashtbl.reset tbl.entries;
    tbl.digest_xor <- 0;
    n
  end

let insert t ~node meta =
  check_node t node;
  locked t (table t node) ~write:true
    (fun t tbl node meta -> insert_unlocked t tbl ~node meta)
    node meta

let delete t ~node key =
  check_node t node;
  locked t (table t node) ~write:true
    (fun t tbl node key -> delete_unlocked t tbl ~node key)
    node key

let purge_node t ~node =
  check_node t node;
  locked t (table t node) ~write:true
    (fun t tbl node () -> wipe_unlocked t tbl ~node)
    node ()

let reset_node t ~node =
  check_node t node;
  wipe_unlocked t t.tables.(node) ~node

let entries t ~node =
  check_node t node;
  fold_entries (fun _ m acc -> m :: acc) t.tables.(node) []

let find t ~node key =
  check_node t node;
  Hashtbl.find_opt t.tables.(node).entries key

let digest_slow t ~node =
  check_node t node;
  let tbl = t.tables.(node) in
  let hash = fold_entries (fun _ m acc -> acc lxor m.Meta.hash) tbl 0 in
  (Hashtbl.length tbl.entries, hash)

let digest t ~node =
  check_node t node;
  let tbl = t.tables.(node) in
  (Hashtbl.length tbl.entries, tbl.digest_xor)

let table_size t ~node =
  check_node t node;
  Hashtbl.length t.tables.(node).entries

let total_size t =
  Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl.entries) 0 t.tables

let nodes t = Array.length t.tables
let hints_enabled t = t.hints <> None
let hint_stats t = (t.hint_saved, t.hint_false)

let lock_acquisitions t =
  let rd = ref (Sim.Rwlock.rd_acquisitions t.global_lock + t.extra_rd) in
  let wr = ref (Sim.Rwlock.wr_acquisitions t.global_lock) in
  Array.iter
    (fun tbl ->
      rd := !rd + Sim.Rwlock.rd_acquisitions tbl.lock;
      wr := !wr + Sim.Rwlock.wr_acquisitions tbl.lock)
    t.tables;
  (!rd, !wr)
