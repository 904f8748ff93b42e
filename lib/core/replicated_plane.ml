(* The replicated metadata plane (paper §4.2): every node holds a full
   directory replica, one table per cluster node, kept consistent by
   broadcasting every insert and delete. *)

module Update = struct
  type one = [ `One ]
  type any = [ `Any ]

  type _ t =
    | Insert : Cache.Meta.t -> 'k t
    | Delete : { node : int; key : string } -> 'k t
    | Batch : one t list -> any t

  (* Per-update payload, without the envelope. A batch shares one
     envelope across its updates; each update then costs a 12-byte
     sub-header plus its body, so [bytes] amortizes the fixed cost. *)
  let rec body : type k. k t -> int = function
    | Insert meta -> String.length meta.Cache.Meta.key + 40
    | Delete { key; _ } -> String.length key
    | Batch updates ->
        List.fold_left (fun acc u -> acc + 12 + body u) 0 updates

  let bytes u = Node.envelope_bytes + body u

  let updates : type k. k t -> int = function
    | Insert _ | Delete _ -> 1
    | Batch l -> List.length l
end

(* Anti-entropy messages (see the daemon below). A digest summarizes one
   directory table: entry count plus an order-independent hash
   (Cache.Directory.digest). The requester sends its per-table digests;
   the responder answers with the full entry list of every table whose
   digest differed. *)
type digest = { n_entries : int; hash : int }
type sync_reply = { tables : (int * Cache.Meta.t list) list }

type sync_request = {
  from_node : int;  (* requesting endpoint, for the reply's address *)
  digests : digest array;  (* indexed by table/node id *)
  sync_reply : sync_reply Sim.Mailbox.t;
      (* like a fetch's, abandoned on timeout (peer down or partitioned) *)
  span : int;  (* originating span id for causal tracing; 0 = untraced *)
}

(* 12 bytes per table digest plus the envelope. *)
let sync_request_bytes { digests; _ } =
  Node.envelope_bytes + (12 * Array.length digests)

(* Each shipped meta costs its key plus a fixed record, like an Insert. *)
let sync_reply_bytes { tables } =
  List.fold_left
    (fun acc (_, metas) ->
      List.fold_left
        (fun acc (m : Cache.Meta.t) ->
          acc + 40 + String.length m.Cache.Meta.key)
        (acc + 8) metas)
    Node.envelope_bytes tables

type node = {
  self : int;
  dir : Cache.Directory.t;
  ae_rng : Sim.Rng.t;  (* anti-entropy peer choice; own salted stream *)
  sync_mb : sync_request Sim.Mailbox.t;  (* consumed by the responder *)
  mutable batch_buf : Update.one Update.t list;
      (* outbound directory updates awaiting a batched flush, newest
         first; empty whenever Config.batch_max <= 1 *)
}

type t = {
  x : Node.ctx;
  nodes : node array;
  inboxes : Update.any Update.t Node.info_envelope Sim.Mailbox.t array;
      (* inboxes.(i) is node i's info receiver *)
}

(* Anti-entropy peer choice draws from generators split off a salted root
   of their own (never off the cluster's root), so enabling the daemon
   does not perturb workload, CPU or cache streams. *)
let anti_entropy_seed_salt = 0x0A17E57

let create (x : Node.ctx) ?lock_observe () =
  let cfg = x.cfg in
  let ae_root = Sim.Rng.create (cfg.Config.seed lxor anti_entropy_seed_salt) in
  {
    x;
    nodes =
      Array.map
        (fun (nd : Node.t) ->
          let cpu = nd.cpu in
          {
            self = nd.id;
            (* Directory lock and scan work burns this node's CPU, so it
               contends with request processing. *)
            dir =
              Cache.Directory.create ~granularity:cfg.Config.dir_granularity
                ~lock_overhead:Config.dir_lock_overhead
                ~scan_cost:cfg.Config.dir_scan_cost
                ~charge:(fun s -> Sim.Cpu.consume cpu s)
                ~hints:cfg.Config.dir_hints ?lock_observe
                ~nodes:cfg.Config.n_nodes ();
            ae_rng = Sim.Rng.split ae_root;
            sync_mb = Sim.Mailbox.create ();
            batch_buf = [];
          })
        x.nodes;
    inboxes = Array.map (fun _ -> Sim.Mailbox.create ()) x.nodes;
  }

let directory p i = p.nodes.(i).dir
let info_mailbox p i = p.inboxes.(i)
let with_span = Node.with_span
let incr = Node.incr
let now = Node.now

(* ------------------------------------------------------------------ *)
(* Lookup *)

let lookup p (nd : Node.t) key =
  let st = p.nodes.(nd.id) in
  match
    with_span p.x nd "dir.lookup" (fun () ->
        Cache.Directory.lookup_from st.dir ~self:st.self ~now:(now ()) key)
  with
  | None -> Plane.Absent
  | Some meta when meta.Cache.Meta.owner = nd.id -> Plane.Here
  | Some meta -> Plane.At meta.Cache.Meta.owner

(* The directory said we own it but the store dropped it (expiry race). *)
let stale p (nd : Node.t) key _ =
  incr nd Node.K.dir_stale_self;
  ignore (Cache.Directory.delete p.nodes.(nd.id).dir ~node:nd.id key : bool)

(* ------------------------------------------------------------------ *)
(* Local bookkeeping *)

let insert p (nd : Node.t) (meta : Cache.Meta.t) body =
  let st = p.nodes.(nd.id) in
  (* Weak consistency: a peer may have cached the same request while we
     executed it — the second kind of false miss (§4.2). *)
  (match
     Cache.Directory.lookup_from st.dir ~self:nd.id ~now:meta.Cache.Meta.created
       meta.Cache.Meta.key
   with
  | Some m when m.Cache.Meta.owner <> nd.id ->
      incr nd Node.K.false_miss_duplicate
  | Some _ | None -> ());
  let evicted = Cache.Store.insert_body nd.store meta body in
  Cache.Directory.insert st.dir ~node:nd.id meta;
  List.iter
    (fun (m : Cache.Meta.t) ->
      ignore
        (Cache.Directory.delete st.dir ~node:nd.id m.Cache.Meta.key : bool))
    evicted;
  evicted

(* ------------------------------------------------------------------ *)
(* Announcements: broadcast, optionally batched *)

(* The broadcast's one peer loop: visit every inbox but [src]'s in node
   order, calling [each dst inbox], and return how many peers were
   visited. The fan-out pays one NIC transmission per peer, so simulated
   time passes between visits and a crash event can land mid-loop;
   checking [should_abort] before each peer makes the broadcast genuinely
   partial: peers already messaged keep the update, the rest never see it
   (as opposed to the network dropping the remaining sends, which would
   count as drops). A [while] loop, so the walk allocates no closure of
   its own. *)
let fan_out ?(should_abort = fun () -> false) inboxes ~src each =
  let n = Array.length inboxes in
  let sent = ref 0 and dst = ref 0 in
  while !dst < n && not (should_abort ()) do
    if !dst <> src then begin
      each !dst inboxes.(!dst);
      Stdlib.incr sent
    end;
    Stdlib.incr dst
  done;
  !sent

let info ?should_abort ?(span = 0) net inboxes ~src ~bytes msg =
  fan_out ?should_abort inboxes ~src (fun dst inbox ->
      Sim.Net.send net ~src ~dst ~bytes inbox
        { Node.info = msg; ack = None; span })

(* Transmit one directory-update message (bare or batched) to every peer
   per the configured consistency protocol, counting the unicasts and
   wire bytes actually sent. *)
let dispatch p (nd : Node.t) (msg : Update.any Update.t) =
  with_span p.x nd "broadcast" @@ fun () ->
  let x = p.x in
  let span = Node.span_of x in
  let bytes = Update.bytes msg in
  let sent =
    match (x.cfg.Config.consistency, x.cfg.Config.broadcast_latency) with
    | Config.Strong, _ ->
        (* Block until every replica has applied the update. *)
        let ack = Sim.Mailbox.create () in
        let sent =
          fan_out p.inboxes ~src:nd.id (fun dst inbox ->
              Sim.Net.send x.net ~src:nd.id ~dst ~bytes inbox
                { Node.info = msg; ack = Some (nd.id, ack); span })
        in
        for _ = 1 to sent do
          Sim.Mailbox.recv ack
        done;
        sent
    | Config.Weak, None ->
        (* Interruptible: a crash landing mid-fan-out stops the loop,
           leaving the replica update genuinely partial. *)
        info ~should_abort:(fun () -> not nd.up) ~span x.net p.inboxes
          ~src:nd.id ~bytes msg
    | Config.Weak, Some delay ->
        (* Ablation knob: deliver directory updates after a fixed delay,
           bypassing the network model, to widen or narrow the weak-
           consistency window in isolation. *)
        fan_out p.inboxes ~src:nd.id (fun _ inbox ->
            ignore
              (Sim.Engine.schedule_after x.engine delay (fun () ->
                   Sim.Mailbox.send inbox { Node.info = msg; ack = None; span })
                : Sim.Engine.handle))
  in
  if sent > 0 then begin
    Metrics.Counter.add nd.counters Node.K.info_msgs sent;
    Metrics.Counter.add nd.counters Node.K.info_bytes (sent * bytes)
  end

(* The (table, key) a buffered update settles; two updates with the same
   target coalesce because the later one fully determines the key's final
   directory state. *)
let update_target : Update.one Update.t -> int * string = function
  | Update.Insert m -> (m.Cache.Meta.owner, m.Cache.Meta.key)
  | Update.Delete { node; key } -> (node, key)

(* Transmit whatever the outbound buffer holds. A single buffered update
   goes out bare — byte-identical to the unbatched path — so the Batch
   wrapper (and its counters) only ever covers >= 2 updates. *)
let flush p (nd : Node.t) st =
  let buffered = st.batch_buf in
  st.batch_buf <- [];
  match buffered with
  | [] -> ()
  | [ Update.Insert m ] -> dispatch p nd (Update.Insert m)
  | [ Update.Delete { node; key } ] ->
      dispatch p nd (Update.Delete { node; key })
  | _ ->
      let updates = List.rev buffered in
      incr nd Node.K.batches_sent;
      Metrics.Counter.add nd.counters Node.K.batch_updates
        (List.length updates);
      dispatch p nd (Update.Batch updates)

(* Buffer one update, coalescing against any pending update to the same
   key (last write wins, and the winner moves to the end so in-order
   application at the receiver is preserved), and flush when the buffer
   reaches [batch_max]; the per-node flusher daemon handles the timer. *)
let buffer p nd st (u : Update.one Update.t) =
  let target = update_target u in
  let rest = List.filter (fun v -> update_target v <> target) st.batch_buf in
  if List.compare_lengths rest st.batch_buf <> 0 then
    incr nd Node.K.batch_coalesced;
  st.batch_buf <- u :: rest;
  if List.compare_length_with st.batch_buf p.x.cfg.Config.batch_max >= 0 then
    flush p nd st

(* Originate one directory update. With batching off ([batch_max <= 1])
   it is transmitted immediately, bare. *)
let announce_insert p (nd : Node.t) meta =
  incr nd Node.K.broadcast_insert;
  if p.x.cfg.Config.batch_max <= 1 then dispatch p nd (Update.Insert meta)
  else buffer p nd p.nodes.(nd.id) (Update.Insert meta)

let announce_delete p (nd : Node.t) key =
  incr nd Node.K.broadcast_delete;
  if p.x.cfg.Config.batch_max <= 1 then
    dispatch p nd (Update.Delete { node = nd.id; key })
  else buffer p nd p.nodes.(nd.id) (Update.Delete { node = nd.id; key })

let announce p nd meta ~evicted =
  List.iter
    (fun (m : Cache.Meta.t) -> announce_delete p nd m.Cache.Meta.key)
    evicted;
  announce_insert p nd meta

let delete p (nd : Node.t) key =
  ignore (Cache.Directory.delete p.nodes.(nd.id).dir ~node:nd.id key : bool);
  announce_delete p nd key

(* Apply a received directory update; a batch applies its updates in list
   order, so a later update to the same key wins. [info_applied] counts
   updates, not envelopes, keeping it comparable across batch settings. *)
let rec apply : type k. node -> Node.t -> k Update.t -> unit =
 fun st nd -> function
  | Update.Insert meta ->
      incr nd Node.K.info_applied;
      Cache.Directory.insert st.dir ~node:meta.Cache.Meta.owner meta
  | Update.Delete { node; key } ->
      incr nd Node.K.info_applied;
      ignore (Cache.Directory.delete st.dir ~node key : bool)
  | Update.Batch updates -> List.iter (apply st nd) updates

(* ------------------------------------------------------------------ *)
(* Failures *)

(* A fetch that survives every retry marks the owner as suspect — most
   likely crashed or partitioned. Drop our replica of its whole
   directory table: its entries could only produce more timed-out
   fetches, and if the owner is alive it will re-announce whatever it
   still caches as requests repopulate it. *)
let unreachable p (nd : Node.t) ~owner _ =
  let purged = Cache.Directory.purge_node p.nodes.(nd.id).dir ~node:owner in
  if purged > 0 then
    Metrics.Counter.add nd.counters Node.K.dir_suspect_purged purged

let false_hit _ _ _ = ()

(* A crashing node loses only its own table — the other tables are its
   (now stale) view of peers, repaired lazily after restart. Buffered but
   unflushed updates die with it; peers learn of the lost entries via
   false hits or anti-entropy, like updates lost mid-broadcast. *)
let crash p (nd : Node.t) =
  let st = p.nodes.(nd.id) in
  ignore (Cache.Directory.reset_node st.dir ~node:nd.id : int);
  st.batch_buf <- []

let handoff _ ?died:_ () = ()

(* ------------------------------------------------------------------ *)
(* Anti-entropy (directory repair).

   Each node periodically exchanges per-table directory digests with one
   seeded-random peer and pulls the entries it is missing or holds stale,
   so replicas provably reconverge after a partition heals or a crash cut
   a broadcast short — instead of relying only on the lazy suspect purge.

   Reconciliation rules, per table [j] of a reply from peer [p]:
   - [j = self]: skipped. A node's own table tracks its own store; a peer
     cannot know better, and adopting a peer's stale replica would
     resurrect entries the store no longer holds.
   - [j = p]: the responder is the authority for its own table, so the
     requester adopts it wholesale — stale entries are removed, missing
     ones inserted. This is the only path on which anti-entropy deletes,
     and it is exactly the path on which deletion is safe.
   - otherwise (third-party replica): per-key recency merge — pull a key
     iff it is missing or the incoming meta is newer ([created] is the
     owner's insertion clock, so newest-wins is well defined). Never
     deletes: a missing key may mean "never heard the insert", so removal
     waits for the authority or an ordinary Delete broadcast.

   A pulled key that the requester itself also caches (same key in its own
   table) reveals a duplicate execution that happened while the replicas
   were divided — the paper's second kind of false miss, discovered at
   reconciliation time rather than at insert time. *)

let ae_merge p (nd : Node.t) (reply : sync_reply) ~peer =
  let dir = p.nodes.(nd.id).dir in
  let pulled = ref 0 in
  (* Pull [m] into table [j] iff it is missing there or newer. *)
  let pull j (m : Cache.Meta.t) =
    match Cache.Directory.find dir ~node:j m.Cache.Meta.key with
    | Some cur when cur.Cache.Meta.created >= m.Cache.Meta.created -> ()
    | (Some _ | None) as cur ->
        if cur = None
           && Cache.Directory.find dir ~node:nd.id m.Cache.Meta.key <> None
        then incr nd Node.K.false_miss_duplicate;
        Cache.Directory.insert dir ~node:j m;
        Stdlib.incr pulled
  in
  List.iter
    (fun (j, metas) ->
      if j <> nd.id && j >= 0 && j < Array.length p.nodes then begin
        if j = peer then begin
          (* Authoritative copy: drop whatever the responder no longer has. *)
          let keep = Hashtbl.create (List.length metas) in
          List.iter
            (fun (m : Cache.Meta.t) -> Hashtbl.replace keep m.Cache.Meta.key ())
            metas;
          List.iter
            (fun (m : Cache.Meta.t) ->
              if not (Hashtbl.mem keep m.Cache.Meta.key) then
                ignore
                  (Cache.Directory.delete dir ~node:j m.Cache.Meta.key : bool))
            (Cache.Directory.entries dir ~node:j)
        end;
        List.iter (pull j) metas
      end)
    reply.tables;
  !pulled

(* One anti-entropy round: digest everything, ask one seeded-random peer,
   merge whatever comes back before the (bounded) wait expires. *)
let ae_round p (nd : Node.t) ~period =
  with_span p.x nd "ae.round" @@ fun () ->
  let st = p.nodes.(nd.id) in
  let n = Array.length p.nodes in
  let peer =
    let k = Sim.Rng.int st.ae_rng (n - 1) in
    if k >= nd.id then k + 1 else k
  in
  incr nd Node.K.anti_entropy_rounds;
  let digests =
    Array.init n (fun j ->
        let n_entries, hash = Cache.Directory.digest st.dir ~node:j in
        { n_entries; hash })
  in
  let reply_mb = Sim.Mailbox.create () in
  let req =
    {
      from_node = nd.id;
      digests;
      sync_reply = reply_mb;
      span = Node.span_of p.x;
    }
  in
  Sim.Net.send p.x.net ~src:nd.id ~dst:peer ~bytes:(sync_request_bytes req)
    p.nodes.(peer).sync_mb req;
  let timeout = Option.value p.x.cfg.Config.fetch_timeout ~default:period in
  match Sim.Mailbox.recv_timeout reply_mb ~timeout with
  | None -> ()  (* peer down or partitioned away; next round, another peer *)
  | Some reply ->
      let pulled = ae_merge p nd reply ~peer in
      if pulled > 0 then
        Metrics.Counter.add nd.counters Node.K.anti_entropy_pulled pulled

let anti_entropy_daemon p (nd : Node.t) ~period =
  Node.every ~stopped:(fun () -> nd.stop) ~period (fun () ->
      if nd.up && (not nd.stop) && Array.length p.nodes > 1 then begin
        Sim.Cpu.consume nd.cpu Config.info_apply_cost;
        ae_round p nd ~period
      end)

(* The responder half: answer digest exchanges with the tables that
   differ. Runs forever on its mailbox, like the info receiver. *)
let sync_responder p (nd : Node.t) =
  Node.serve nd p.nodes.(nd.id).sync_mb (fun req ->
      with_span p.x nd "ae.respond" ~parent:req.span ~async:true
        (fun () ->
      Sim.Cpu.consume nd.cpu Config.info_apply_cost;
      let dir = p.nodes.(nd.id).dir in
      let n = Array.length p.nodes in
      let tables = ref [] in
      for j = n - 1 downto 0 do
        let n_entries, hash = Cache.Directory.digest dir ~node:j in
        let differs =
          match
            if j < Array.length req.digests then Some req.digests.(j)
            else None
          with
          | Some d -> d.n_entries <> n_entries || d.hash <> hash
          | None -> true
        in
        if differs then
          tables := (j, Cache.Directory.entries dir ~node:j) :: !tables
      done;
      let reply = { tables = !tables } in
      Sim.Net.send p.x.net ~src:nd.id ~dst:req.from_node
        ~bytes:(sync_reply_bytes reply) req.sync_reply reply))

(* Nagle timer for the batching layer: transmit whatever the outbound
   buffer holds every [period] seconds, so a buffered update never waits
   longer than one period for the size threshold. A crashed node's buffer
   was already cleared by [crash], so skipping while down loses nothing. *)
let batch_flusher p (nd : Node.t) ~period =
  Node.every ~stopped:(fun () -> nd.stop) ~period (fun () ->
      if nd.up && (not nd.stop) && p.nodes.(nd.id).batch_buf <> [] then
        (* Its own root tree: a batch mixes updates from several requests,
           so no single request can claim the flush. *)
        with_span p.x nd "batch.flush" (fun () -> flush p nd p.nodes.(nd.id)))

(* ------------------------------------------------------------------ *)
(* Daemons and statistics *)

let start p (nd : Node.t) =
  let x = p.x in
  let cfg = x.cfg in
  let st = p.nodes.(nd.id) in
  Sim.Engine.spawn x.engine (fun () ->
      Node.info_receiver x nd p.inboxes.(nd.id) ~updates:Update.updates
        ~apply:(apply st nd));
  Sim.Engine.spawn x.engine (fun () -> Node.data_server x nd);
  (match (cfg.Config.batch_max, cfg.Config.batch_flush_interval) with
  | n, Some period when n > 1 ->
      Sim.Engine.spawn x.engine (fun () -> batch_flusher p nd ~period)
  | _ -> ());
  match cfg.Config.anti_entropy_period with
  | None -> ()
  | Some period ->
      Sim.Engine.spawn x.engine (fun () -> sync_responder p nd);
      Sim.Engine.spawn x.engine (fun () -> anti_entropy_daemon p nd ~period)

let entries p i = Cache.Directory.total_size p.nodes.(i).dir
let lock_acquisitions p i = Cache.Directory.lock_acquisitions p.nodes.(i).dir
let backlog p i =
  Sim.Mailbox.length p.inboxes.(i) + Sim.Mailbox.length p.nodes.(i).sync_mb

(* Hint statistics live in the directory; no-op counters stay absent when
   hints are off, so hint-less runs keep the pre-hint counter set. *)
let record_stats p =
  Array.iteri
    (fun i st ->
      let nd = p.x.nodes.(i) in
      let saved, false_hints = Cache.Directory.hint_stats st.dir in
      if saved > 0 then
        Metrics.Counter.add nd.counters Node.K.hint_probes_saved saved;
      if false_hints > 0 then
        Metrics.Counter.add nd.counters Node.K.hint_false false_hints)
    p.nodes
