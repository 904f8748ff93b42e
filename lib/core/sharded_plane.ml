(* The sharded metadata plane: the directory is partitioned over a
   consistent-hash ring. Each key's entry lives only at its acting home —
   the first live node in ring-successor order — which alone maintains
   it; updates are unicast to the home, and a lookup from any other node
   is forwarded there (behind a lookup cache and, for hot keys, pushed
   replica copies). *)

(* Point-to-point announcements on the info channel. Insert and Delete
   travel only to the key's shard home; Promote and Demote are the
   hotspot-replication control messages a home sends its replica set —
   Promote pushes a hot key's entry to a ring successor, Demote retracts
   it once the key cools. Priced like the replicated plane's bare
   updates. *)
module Update = struct
  type t =
    | Insert of Cache.Meta.t
    | Delete of { node : int; key : string }
    | Promote of Cache.Meta.t
    | Demote of { key : string }

  let bytes = function
    | Insert meta | Promote meta ->
        Node.envelope_bytes + String.length meta.Cache.Meta.key + 40
    | Delete { key; _ } | Demote { key } ->
        Node.envelope_bytes + String.length key

  let key = function
    | Insert m | Promote m -> m.Cache.Meta.key
    | Delete { key; _ } | Demote { key } -> key
end

(* A node that is not a key's shard home learns who caches the key by
   asking the home: a blocking round trip answered by the home's lookup
   server, with the live entry or proof of absence (the requester's cue
   to execute locally and announce the result). Like a fetch, the
   requester may abandon [lreply] on timeout (home crashed or
   partitioned away). *)
type lookup_reply = Found of Cache.Meta.t | Absent of { key : string }

type lookup_request = {
  lkey : string;  (* the cache key being resolved *)
  lrequester : int;  (* endpoint id awaiting the reply *)
  lreply : lookup_reply Sim.Mailbox.t;
  lspan : int;  (* originating span id for causal tracing; 0 = untraced *)
}

let lookup_request_bytes { lkey; _ } = Node.envelope_bytes + String.length lkey

(* Found carries a meta record like an Insert. *)
let lookup_reply_bytes = function
  | Found meta -> Node.envelope_bytes + String.length meta.Cache.Meta.key + 40
  | Absent { key } -> Node.envelope_bytes + String.length key

type node = {
  table : Cache.Shard_table.t;  (* this node's partition of the directory *)
  lookup_mb : lookup_request Sim.Mailbox.t;  (* consumed by lookup_server *)
  lcache : Cache.Lookup_cache.t option;
      (* fronts forwarded lookups; [None] when disabled *)
  hotspot : Cache.Hotspot.t option;
      (* promotion tracker; [None] when hotspot replication is off *)
}

type t = {
  x : Node.ctx;
  ring : Cache.Ring.t;
      (* one shared immutable ring: every node computes the same key→home
         mapping, and liveness is supplied per query, so crashes never
         rebuild it *)
  up : int -> bool;  (* node liveness, for the ring's acting owner *)
  nodes : node array;
  inboxes : Update.t Node.info_envelope Sim.Mailbox.t array;
      (* inboxes.(i) is node i's info receiver *)
  fwd_wait : Metrics.Histogram.t;
}

let create (x : Node.ctx) ?lock_observe ~fwd_wait () =
  let cfg = x.cfg in
  let ring =
    Cache.Ring.create ~nodes:cfg.Config.n_nodes ~vnodes:cfg.Config.shard_vnodes
  in
  {
    x;
    ring;
    up = (fun i -> x.nodes.(i).up);
    nodes =
      Array.map
        (fun (nd : Node.t) ->
          let cpu = nd.cpu in
          {
            (* Same lock-cost model and CPU charging as the replicated
               replica, so the dirmode ablation compares the planes, not
               their cost constants. *)
            table =
              Cache.Shard_table.create
                ~lock_overhead:Config.dir_lock_overhead
                ~charge:(fun s -> Sim.Cpu.consume cpu s)
                ?lock_observe ();
            lookup_mb = Sim.Mailbox.create ();
            lcache =
              (if cfg.Config.shard_lookup_cache > 0 then
                 Some
                   (Cache.Lookup_cache.create
                      ~capacity:cfg.Config.shard_lookup_cache
                      ~pos_ttl:cfg.Config.shard_pos_ttl
                      ~neg_ttl:cfg.Config.shard_neg_ttl)
               else None);
            hotspot =
              (if cfg.Config.hotspot_threshold > 0. then
                 Some
                   (Cache.Hotspot.create
                      ~threshold:cfg.Config.hotspot_threshold
                      ~window:cfg.Config.hotspot_window)
               else None);
          })
        x.nodes;
    inboxes = Array.map (fun _ -> Sim.Mailbox.create ()) x.nodes;
    fwd_wait;
  }

let ring p = p.ring
let table p i = p.nodes.(i).table
let with_span = Node.with_span
let incr = Node.incr
let now = Node.now

(* ------------------------------------------------------------------ *)
(* Announcements: point-to-point routing to the key's acting home.
   Hotspot control messages (Promote/Demote) flow from homes to their
   replica sets on the same info channel. *)

(* Unicast one announcement to [dst]'s info receiver, fire-and-forget,
   charging the same counters as the replicated broadcast so
   info_msgs/info_bytes compare directly across planes. *)
let unicast_info p (nd : Node.t) ~dst msg =
  let bytes = Update.bytes msg in
  Sim.Net.send p.x.net ~src:nd.id ~dst ~bytes p.inboxes.(dst)
    { Node.info = msg; ack = None; span = Node.span_of p.x };
  incr nd Node.K.info_msgs;
  Metrics.Counter.add nd.counters Node.K.info_bytes bytes

(* The nodes a hot key is replicated to: the ring successors after the
   primary owner, live nodes only, never self. *)
let replica_set p (nd : Node.t) key =
  match
    Cache.Ring.successors p.ring key
      ~k:(1 + p.x.cfg.Config.hotspot_replicas)
  with
  | [] | [ _ ] -> []
  | _ :: tail -> List.filter (fun j -> j <> nd.id && p.x.nodes.(j).up) tail

let push_promote p nd (meta : Cache.Meta.t) =
  List.iter
    (fun j ->
      incr nd Node.K.hotspot_replica_pushes;
      unicast_info p nd ~dst:j (Update.Promote meta))
    (replica_set p nd meta.Cache.Meta.key)

let push_demote p nd key =
  List.iter
    (fun j -> unicast_info p nd ~dst:j (Update.Demote { key }))
    (replica_set p nd key)

(* Apply one announcement at its destination — the shard home for
   inserts/deletes, a replica for promote/demote. Also runs directly when
   the announcing node is itself the acting home (no message then, like
   the replicated plane's local table update). *)
let apply p (nd : Node.t) msg =
  let st = p.nodes.(nd.id) in
  match msg with
  | Update.Insert meta ->
      incr nd Node.K.info_applied;
      (match Cache.Shard_table.insert st.table meta with
      | `Replaced old when old.Cache.Meta.owner <> meta.Cache.Meta.owner ->
          (* Duplicate execution discovered at reconciliation — the
             paper's second kind of false miss, observed at the shard
             home rather than at insert time. *)
          incr nd Node.K.false_miss_duplicate
      | `Inserted | `Replaced _ | `Stale -> ());
      (* A hot key's replicas must see updates too, or their copies would
         serve the superseded owner until demotion. *)
      (match st.hotspot with
      | Some h when Cache.Hotspot.is_hot h meta.Cache.Meta.key ->
          push_promote p nd meta
      | Some _ | None -> ())
  | Update.Delete { node; key } ->
      incr nd Node.K.info_applied;
      ignore (Cache.Shard_table.delete st.table ~owner:node key : bool);
      (match st.hotspot with
      | Some h when Cache.Hotspot.forget h key ->
          incr nd Node.K.hotspot_demotions;
          push_demote p nd key
      | Some _ | None -> ())
  | Update.Promote meta ->
      incr nd Node.K.info_applied;
      ignore
        (Cache.Shard_table.insert st.table meta
          : [ `Inserted | `Replaced of Cache.Meta.t | `Stale ])
  | Update.Demote { key } ->
      incr nd Node.K.info_applied;
      (* Retract the replica copy — unless the ring now makes this node
         the key's acting home (the primary crashed since the promote), in
         which case the copy is the authoritative entry. *)
      if Cache.Ring.acting_owner p.ring ~up:p.up key <> Some nd.id then
        ignore (Cache.Shard_table.delete st.table key : bool)

(* Route one announcement to the key's acting home. *)
let dispatch p (nd : Node.t) msg =
  with_span p.x nd "announce" @@ fun () ->
  match Cache.Ring.acting_owner p.ring ~up:p.up (Update.key msg) with
  | None -> ()  (* every node down; no directory left to update *)
  | Some home when home = nd.id -> apply p nd msg
  | Some home -> unicast_info p nd ~dst:home msg

(* The duplicate-execution check needs the key's shard entry, which lives
   at the home; the home performs it when the announcement arrives
   (apply). Here only the store changes — the directory update is the
   announcement itself. *)
let insert _ (nd : Node.t) meta body =
  Cache.Store.insert_body nd.store meta body

let announce_delete p (nd : Node.t) key =
  incr nd Node.K.broadcast_delete;
  dispatch p nd (Update.Delete { node = nd.id; key })

let announce p (nd : Node.t) meta ~evicted =
  List.iter
    (fun (m : Cache.Meta.t) -> announce_delete p nd m.Cache.Meta.key)
    evicted;
  incr nd Node.K.broadcast_insert;
  dispatch p nd (Update.Insert meta)

(* The local directory update IS the announcement — dispatch applies it
   locally when this node is the home. *)
let delete = announce_delete

(* ------------------------------------------------------------------ *)
(* Lookup (Figure 2's directory query, re-routed through the ring) *)

(* Count one home-served lookup toward hotspot promotion; when this very
   observation promotes the key, push its entry to the replica set. A
   promotion on a miss has nothing to push — the next Insert announcement
   does it (apply checks is_hot). *)
let note_hot_lookup p nd st meta_opt key =
  match st.hotspot with
  | None -> ()
  | Some h -> (
      match Cache.Hotspot.record h ~now:(now ()) key with
      | `Noted -> ()
      | `Promoted -> (
          incr nd Node.K.hotspot_promotions;
          match meta_opt with
          | Some meta -> push_promote p nd meta
          | None -> ()))

(* A meta found in this node's own table. *)
let verdict (nd : Node.t) (meta : Cache.Meta.t) =
  if meta.Cache.Meta.owner = nd.id then Plane.Here
  else Plane.At meta.Cache.Meta.owner

(* Ask the key's acting home who caches it — the sharded plane's only
   remote metadata operation. The request is counted at the requester,
   the reply at the home (lookup_server), so summing nodes counts both
   legs. *)
let forward_lookup p (nd : Node.t) st key ~home =
  incr nd Node.K.shard_fwd_lookups;
  let t_fwd = now () in
  let answer =
    with_span p.x nd "dir.forward"
      ~attrs:(fun () -> [ ("home", string_of_int home) ])
    @@ fun () ->
    let reply_mb = Sim.Mailbox.create () in
    let req =
      {
        lkey = key;
        lrequester = nd.id;
        lreply = reply_mb;
        lspan = Node.span_of p.x;
      }
    in
    Sim.Net.send p.x.net ~src:nd.id ~dst:home ~bytes:(lookup_request_bytes req)
      p.nodes.(home).lookup_mb req;
    incr nd Node.K.dir_lookup_msgs;
    Metrics.Counter.add nd.counters Node.K.dir_lookup_bytes
      (lookup_request_bytes req);
    Sim.Mailbox.recv_timeout reply_mb
      ~timeout:(Option.value p.x.cfg.Config.fetch_timeout ~default:infinity)
  in
  Metrics.Histogram.add p.fwd_wait (now () -. t_fwd);
  match answer with
  | None ->
      (* Home crashed or partitioned away: execute locally. The crash
         handoff (or the fetch-timeout suspect purge) repairs the shard. *)
      incr nd Node.K.dir_lookup_timeouts;
      Option.iter (fun lc -> Cache.Lookup_cache.invalidate lc key) st.lcache;
      Plane.Absent
  | Some (Found meta) ->
      Option.iter
        (fun lc -> Cache.Lookup_cache.note_pos lc ~now:(now ()) meta)
        st.lcache;
      (* The home may believe we cache it while our store disagrees
         (purge raced the delete announcement): the delete is already on
         the wire, so there is nothing here to repair. *)
      if meta.Cache.Meta.owner = nd.id then Plane.Told_here
      else Plane.At meta.Cache.Meta.owner
  | Some (Absent _) ->
      Option.iter
        (fun lc -> Cache.Lookup_cache.note_neg lc ~now:(now ()) key)
        st.lcache;
      Plane.Absent

let lookup p (nd : Node.t) key =
  let st = p.nodes.(nd.id) in
  match Cache.Ring.acting_owner p.ring ~up:p.up key with
  | None ->
      (* Every node is down but this one is handling a request — cannot
         happen outside shutdown races; degrade to plain execution. *)
      Plane.Absent
  | Some home when home = nd.id -> (
      incr nd Node.K.shard_local_lookups;
      let found =
        with_span p.x nd "dir.lookup" (fun () ->
            Cache.Shard_table.probe st.table ~now:(now ()) key)
      in
      note_hot_lookup p nd st found key;
      match found with None -> Plane.Absent | Some meta -> verdict nd meta)
  | Some home -> (
      (* Hotspot fast path: with promotion on, this node's table may hold
         a pushed copy of a hot key — probe before paying the forward. *)
      let promoted =
        match st.hotspot with
        | Some _ ->
            with_span p.x nd "dir.lookup" (fun () ->
                Cache.Shard_table.probe st.table ~now:(now ()) key)
        | None -> None
      in
      match promoted with
      | Some meta ->
          incr nd Node.K.shard_replica_hits;
          verdict nd meta
      | None -> (
          match st.lcache with
          | None -> forward_lookup p nd st key ~home
          | Some lc -> (
              match Cache.Lookup_cache.find lc ~now:(now ()) key with
              | Cache.Lookup_cache.Hit meta -> Plane.At meta.Cache.Meta.owner
              | Cache.Lookup_cache.Absent -> Plane.Absent
              | Cache.Lookup_cache.Unknown -> forward_lookup p nd st key ~home)
          ))

(* A directory hit whose meta points at this very node, but the store
   raced it away: repair the entry when it is this node's own. *)
let stale p (nd : Node.t) key v =
  incr nd Node.K.dir_stale_self;
  if v = Plane.Here then
    ignore
      (Cache.Shard_table.delete p.nodes.(nd.id).table ~owner:nd.id key : bool)

(* ------------------------------------------------------------------ *)
(* Failures and handoff *)

(* The owner is suspect: drop every entry it owns here, and the cached
   lookup that pointed at it. *)
let unreachable p (nd : Node.t) ~owner key =
  let st = p.nodes.(nd.id) in
  let purged = Cache.Shard_table.purge_owner st.table ~node:owner in
  if purged > 0 then
    Metrics.Counter.add nd.counters Node.K.dir_suspect_purged purged;
  Option.iter (fun lc -> Cache.Lookup_cache.invalidate lc key) st.lcache

(* The positive information that led to the owner was provably stale. *)
let false_hit p (nd : Node.t) key =
  Option.iter
    (fun lc -> Cache.Lookup_cache.invalidate lc key)
    p.nodes.(nd.id).lcache

(* A crash loses the whole node-local sharded state: its partition of the
   directory, the lookup cache and the hotspot tracker. *)
let crash p (nd : Node.t) =
  let st = p.nodes.(nd.id) in
  ignore (Cache.Shard_table.reset st.table : int);
  Option.iter Cache.Lookup_cache.clear st.lcache;
  Option.iter Cache.Hotspot.clear st.hotspot

(* Shard handoff: after any liveness change (crash, restart, partition
   heal) every live node re-derives which keys it answers for and
   re-announces its own cached entries to their — possibly new — acting
   homes. Re-announcements reconcile newest-wins at the receiver, so the
   protocol is idempotent and safe to over-trigger. On a crash the dead
   node's directory entries are additionally dropped eagerly
   ([purge_owner]) instead of waiting for fetch-timeout suspicion; stale
   positive lookup-cache entries pointing at the dead node are left to
   expire (bounded by [shard_pos_ttl]) or be invalidated by the first
   timed-out fetch. Runs as a spawned process per node: the triggering
   event callback cannot block on locks or the network. *)
let handoff p ?died () =
  Array.iter
    (fun (nd : Node.t) ->
      if nd.up then
        Sim.Engine.spawn p.x.engine (fun () ->
            let st = p.nodes.(nd.id) in
            (match died with
            | Some j ->
                let purged = Cache.Shard_table.purge_owner st.table ~node:j in
                if purged > 0 then
                  Metrics.Counter.add nd.counters Node.K.dir_suspect_purged
                    purged
            | None -> ());
            (* Drop entries this node no longer answers for — unless it
               may legitimately hold them as a hotspot replica. *)
            let keep key =
              match Cache.Ring.acting_owner p.ring ~up:p.up key with
              | Some h when h = nd.id -> true
              | Some _ | None ->
                  p.x.cfg.Config.hotspot_threshold > 0.
                  && List.exists
                       (fun j -> j = nd.id)
                       (Cache.Ring.successors p.ring key
                          ~k:(1 + p.x.cfg.Config.hotspot_replicas))
            in
            let pruned = Cache.Shard_table.prune st.table ~keep in
            if pruned > 0 then
              Metrics.Counter.add nd.counters Node.K.shard_pruned pruned;
            List.iter
              (fun key ->
                match Cache.Store.peek nd.store key with
                | None -> ()
                | Some entry ->
                    incr nd Node.K.shard_handoff_reannounced;
                    dispatch p nd (Update.Insert entry.Cache.Store.meta))
              (Cache.Store.keys nd.store)))
    p.x.nodes

(* ------------------------------------------------------------------ *)
(* Daemons and statistics *)

(* Answer forwarded directory lookups for the keys this node homes. One
   thread per request, like the data server; a crashed home never
   replies, so the requester times out and executes locally. *)
let lookup_server p (nd : Node.t) =
  Node.serve nd p.nodes.(nd.id).lookup_mb (fun req ->
      Sim.Engine.spawn_child (fun () ->
          with_span p.x nd "dir.serve" ~parent:req.lspan ~async:true
          @@ fun () ->
          Sim.Cpu.consume nd.cpu Config.info_apply_cost;
          let st = p.nodes.(nd.id) in
          let found = Cache.Shard_table.probe st.table ~now:(now ()) req.lkey in
          (* Forwarded lookups are the home's view of the key's demand —
             the signal hotspot promotion feeds on. *)
          note_hot_lookup p nd st found req.lkey;
          let reply =
            match found with
            | Some meta -> Found meta
            | None -> Absent { key = req.lkey }
          in
          incr nd Node.K.dir_lookup_msgs;
          Metrics.Counter.add nd.counters Node.K.dir_lookup_bytes
            (lookup_reply_bytes reply);
          Sim.Net.send p.x.net ~src:nd.id ~dst:req.lrequester
            ~bytes:(lookup_reply_bytes reply) req.lreply reply))

(* Demote cooled hotspot keys once per window. Only shard homes promote,
   so only they originate demotions; Hotspot.sweep returns the cooled
   keys sorted, keeping the message order deterministic. *)
let hotspot_sweeper p (nd : Node.t) h ~period =
  Node.every ~stopped:(fun () -> nd.stop) ~period (fun () ->
      if nd.up && not nd.stop then
        List.iter
          (fun key ->
            incr nd Node.K.hotspot_demotions;
            with_span p.x nd "hotspot.demote" (fun () -> push_demote p nd key))
          (Cache.Hotspot.sweep h ~now:(now ())))

let start p (nd : Node.t) =
  let x = p.x in
  Sim.Engine.spawn x.engine (fun () ->
      Node.info_receiver x nd p.inboxes.(nd.id)
        ~updates:(fun _ -> 1)
        ~apply:(apply p nd));
  Sim.Engine.spawn x.engine (fun () -> Node.data_server x nd);
  Sim.Engine.spawn x.engine (fun () -> lookup_server p nd);
  match p.nodes.(nd.id).hotspot with
  | Some h ->
      Sim.Engine.spawn x.engine (fun () ->
          hotspot_sweeper p nd h ~period:x.cfg.Config.hotspot_window)
  | None -> ()

let entries p i =
  let st = p.nodes.(i) in
  Cache.Shard_table.length st.table
  + match st.lcache with None -> 0 | Some lc -> Cache.Lookup_cache.length lc

let lock_acquisitions p i =
  Cache.Shard_table.lock_acquisitions p.nodes.(i).table
let backlog p i =
  Sim.Mailbox.length p.inboxes.(i) + Sim.Mailbox.length p.nodes.(i).lookup_mb

(* Lookup-cache outcomes, folded in like the replicated plane's hint
   statistics. *)
let record_stats p =
  Array.iteri
    (fun i st ->
      match st.lcache with
      | None -> ()
      | Some lc ->
          let nd = p.x.nodes.(i) in
          let pos, neg, _misses, evictions = Cache.Lookup_cache.stats lc in
          if pos > 0 then
            Metrics.Counter.add nd.counters Node.K.lcache_pos_hits pos;
          if neg > 0 then
            Metrics.Counter.add nd.counters Node.K.lcache_neg_hits neg;
          if evictions > 0 then
            Metrics.Counter.add nd.counters Node.K.lcache_evictions evictions)
    p.nodes
