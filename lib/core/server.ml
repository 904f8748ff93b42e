module K = Node.K

type t = Node.t

(* The metadata plane create_cluster chose, packed with its
   implementation. Every plane operation below goes through it, so no
   path tests the plane mode. *)
type packed = Packed : (module Plane.S with type t = 'p) * 'p -> packed

type plane =
  | Local
  | Replicated of Replicated_plane.t
  | Sharded of Sharded_plane.t

type cluster = {
  ctx : Node.ctx;
  registry : Cgi.Registry.t;
  fault : Sim.Fault.t option;
  mutable fault_handles : Sim.Engine.handle list;
      (* pending crash/restart events, cancelled by [stop] *)
  waits : (string * Metrics.Histogram.t) list;
      (* contention histograms by name, in report order; empty unless
         tracing *)
  hit_latency : Metrics.Sample.t;
      (* cooperative-hit service times, directory lookup through response
         sent; recorded host-side only, so collecting it perturbs nothing *)
  fwd_wait : Metrics.Histogram.t;
      (* sharded plane: forwarded-lookup round-trip waits, timeouts
         included; host-side only, like hit_latency *)
  staleness : Metrics.Histogram.t;
      (* age of the served result at every cache hit (local and remote),
         seconds; host-side only, like hit_latency *)
  packed : packed;
  plane : plane;  (* the same plane, by name, for introspection *)
}

let net c = c.ctx.net
let n_nodes c = Array.length c.ctx.nodes

let node c i =
  if i < 0 || i >= Array.length c.ctx.nodes then
    invalid_arg "Server.node: range";
  c.ctx.nodes.(i)

let plane c = c.plane
let node_counters (nd : t) = nd.counters
let node_store (nd : t) = nd.store
let node_cpu (nd : t) = nd.cpu

let merged_counters c =
  Array.fold_left
    (fun acc (nd : t) -> Metrics.Counter.merge acc nd.counters)
    (Metrics.Counter.create ()) c.ctx.nodes

let total_hits c =
  let m = merged_counters c in
  Metrics.Counter.get m K.hit_local + Metrics.Counter.get m K.hit_remote

(* The fault plan draws from its own generator (derived from the seed, not
   split off [root]) so that attaching a plan leaves every other random
   stream — and therefore every fault-free aspect of the run — unchanged. *)
let fault_seed_salt = 0x5DEECE66

(* Same isolation for the proactive-refresh daemon's demand/failure draws:
   a salted root of its own, so turning the daemon on re-executes entries
   without shifting any request-path random stream. *)
let refresh_seed_salt = 0x00F5E54A

let create_cluster engine cfg ~registry ~n_client_endpoints =
  Config.validate cfg;
  let module H = Metrics.Histogram in
  let tracer =
    if cfg.Config.trace then
      Some
        (Metrics.Trace.create
           ~clock:(fun () -> Sim.Engine.current_time engine)
           ())
    else None
  in
  (* Cluster-wide contention histograms, allocated only when tracing. The
     observers installed on the primitives merely record into these — they
     never delay, suspend or schedule, so enabling them cannot change any
     simulated quantity. *)
  let waits =
    if not cfg.Config.trace then []
    else
      let depth () = H.create ~bounds:H.depth_bounds () in
      [
        ("dir.rd_wait", H.create ());
        ("dir.wr_wait", H.create ());
        ("dir.queue", depth ());
        ("listen.wait", H.create ());
        ("listen.depth", depth ());
        ("cpu.wait", H.create ());
        ("cpu.queue", depth ());
        ("disk.wait", H.create ());
      ]
  in
  (* [traced f] is [f]'s observer, given the histograms by name; without
     tracing no primitive gets one. *)
  let traced f =
    if cfg.Config.trace then Some (f (fun name -> List.assoc name waits))
    else None
  in
  let cpu_observe =
    traced (fun h ->
        let wait_h = h "cpu.wait" and queue_h = h "cpu.queue" in
        fun ~wait ~depth ->
          H.add wait_h wait;
          H.add queue_h (float_of_int depth))
  in
  let disk_observe =
    traced (fun h ->
        let wait_h = h "disk.wait" in
        fun ~kind:_ ~wait ~depth:_ -> H.add wait_h wait)
  in
  let lock_observe =
    traced (fun h ->
        let rd_h = h "dir.rd_wait" and wr_h = h "dir.wr_wait" in
        let queue_h = h "dir.queue" in
        fun ~kind ~wait ~depth ->
          H.add (match kind with `Read -> rd_h | `Write -> wr_h) wait;
          H.add queue_h (float_of_int depth))
  in
  let listen_on_wait = traced (fun h -> H.add (h "listen.wait")) in
  let listen_on_depth =
    traced (fun h ->
        let depth_h = h "listen.depth" in
        fun d -> H.add depth_h (float_of_int d))
  in
  let root = Sim.Rng.create cfg.Config.seed in
  let refresh_root =
    Sim.Rng.create (cfg.Config.seed lxor refresh_seed_salt)
  in
  let fault =
    Option.map
      (fun profile ->
        Sim.Fault.create profile
          ~rng:(Sim.Rng.create (cfg.Config.seed lxor fault_seed_salt))
          ~nodes:cfg.Config.n_nodes)
      cfg.Config.fault
  in
  (* Geo-tiered clients: client stream s (endpoint n_nodes + s) adds its
     tier's extra one-way latency; the cluster LAN keeps the base latency.
     Without tiers the network path is the fixed-latency one. *)
  let extra_latency =
    match cfg.Config.scenario with
    | Some sc when Array.length (Workload.Scenario.tiers sc) > 0 ->
        let extra =
          Array.init n_client_endpoints (fun stream ->
              Workload.Scenario.tier_extra_latency sc
                (Workload.Scenario.tier_of_stream sc
                   ~n_streams:n_client_endpoints ~stream))
        in
        Some
          (fun ep ->
            let s = ep - cfg.Config.n_nodes in
            if s >= 0 then extra.(s) else 0.)
    | Some _ | None -> None
  in
  let net =
    Sim.Net.create ~latency:cfg.Config.net_latency ?extra_latency
      ~bandwidth:cfg.Config.net_bandwidth ?fault engine
      ~n_endpoints:(cfg.Config.n_nodes + n_client_endpoints)
  in
  (* Split and dropped so that every stream split after it is unchanged. *)
  ignore (Sim.Rng.split root : Sim.Rng.t);
  let nodes =
    Array.init cfg.Config.n_nodes (fun id ->
        let rng = Sim.Rng.split root in
        let clock () = Sim.Engine.current_time engine in
        let cpu =
          Sim.Cpu.create ~speed:cfg.Config.cpu_speed ?observe:cpu_observe
            engine ~cores:cfg.Config.cores_per_node
        in
        {
          Node.id;
          cpu;
          disk = Sim.Disk.create ?observe:disk_observe ();
          rng;
          refresh_rng = Sim.Rng.split refresh_root;
          listen =
            Sim.Mailbox.create ?on_wait:listen_on_wait
              ?on_depth:listen_on_depth ();
          data_mb = Sim.Mailbox.create ();
          store =
            Cache.Store.create ~capacity:cfg.Config.cache_capacity
              ~policy:cfg.Config.policy ~clock ~rng:(Sim.Rng.split root) ();
          counters = Metrics.Counter.create ();
          fresh =
            (match cfg.Config.freshness with
            | Cache.Freshness.Fixed -> None
            | Cache.Freshness.Adaptive ->
                Some
                  (Cache.Freshness.create
                     ~min_ttl:cfg.Config.freshness_min_ttl
                     ~max_ttl:cfg.Config.freshness_max_ttl
                     ~penalty:cfg.Config.freshness_penalty
                     ~window:cfg.Config.freshness_window ()));
          refreshed = Hashtbl.create 64;
          in_flight = Hashtbl.create 64;
          active = 0;
          up = true;
          stop = false;
        })
  in
  let ctx = { Node.engine; net; cfg; nodes; tracer } in
  let fwd_wait = Metrics.Histogram.create () in
  (* The one place the plane mode is read: no-cache and standalone nodes
     keep no directory. *)
  let packed, plane =
    match (cfg.Config.cache_mode, cfg.Config.dir_mode) with
    | (Config.Disabled | Config.Standalone), _ ->
        (Packed ((module Local_plane), ()), Local)
    | Config.Cooperative, Config.Replicated ->
        let p = Replicated_plane.create ctx ?lock_observe () in
        (Packed ((module Replicated_plane), p), Replicated p)
    | Config.Cooperative, Config.Sharded ->
        let p = Sharded_plane.create ctx ?lock_observe ~fwd_wait () in
        (Packed ((module Sharded_plane), p), Sharded p)
  in
  (match tracer with
  | None -> ()
  | Some tr ->
      Array.iter
        (fun (nd : t) ->
          Metrics.Trace.set_track_name tr nd.id
            (Printf.sprintf "node %d" nd.id))
        nodes;
      Metrics.Trace.set_track_name tr cfg.Config.n_nodes "clients");
  let hit_latency = Metrics.Sample.create () in
  let staleness =
    Metrics.Histogram.create ~bounds:Metrics.Histogram.age_bounds ()
  in
  {
    ctx;
    registry;
    fault;
    fault_handles = [];
    waits;
    hit_latency;
    fwd_wait;
    staleness;
    packed;
    plane;
  }

(* ------------------------------------------------------------------ *)
(* Tracing helpers (Node.with_span and friends, over the cluster) *)

let tracer c = c.ctx.tracer
let with_span = Node.with_span
let incr = Node.incr
let now = Node.now

let wait_histograms c = c.waits

(* Point events (crashes, heals); safe in engine-event context — the
   tracer's clock is [Engine.current_time], not the process-only [now]. *)
let emit_instant ?attrs c ~track name =
  match c.ctx.tracer with
  | None -> ()
  | Some tr -> Metrics.Trace.instant tr ?attrs ~track ~name ()

(* ------------------------------------------------------------------ *)
(* Response helpers *)

(* A static document, described like a CGI result: its length is the
   file's size, and filler bytes are rendered only if someone reads it. *)
let file_body bytes =
  Http.Body.deferred ~length:bytes (fun () -> String.make bytes ' ')

(* Every reply is charged by its wire size, which reads its body's
   length. *)
let respond c (nd : t) (env : Node.env) resp =
  with_span c.ctx nd "respond" (fun () ->
      Sim.Net.transfer c.ctx.net ~src:nd.id ~dst:env.client
        ~bytes:(Http.Response.wire_size resp));
  Sim.Engine.resume env.resume resp

(* ------------------------------------------------------------------ *)
(* Cache operations *)

(* Per-request cache treatment after composing the administrator rules
   (§4.1's configuration file) with script flags and server defaults.
   The TTL is either fully determined here ([Ttl]: a rule override, the
   script's own TTL, or the fixed default) or deferred to the node's
   adaptive controller at insert time ([Controller]) — the controller
   needs the measured execution cost, which only exists after the CGI
   ran. Explicit rule/script TTLs always beat either server-wide layer
   (Cache.Freshness.effective_ttl's precedence). A node has a controller
   exactly when the freshness plane is adaptive. *)
type ttl_choice = Ttl of float option | Controller of Cache.Freshness.t

type cache_ctl = { attempt : bool; ttl : ttl_choice; threshold : float }

let cache_ctl_for c (nd : t) (script : Cgi.Script.t) meth =
  let rule = Rules.decide c.ctx.cfg.Config.rules script.Cgi.Script.name in
  let attempt =
    script.Cgi.Script.cacheable && rule.Rules.cacheable
    && Http.Meth.equal meth Http.Meth.Get
    && c.ctx.cfg.Config.cache_mode <> Config.Disabled
  in
  let ttl =
    match nd.fresh with
    | None ->
        Ttl
          (Cache.Freshness.effective_ttl ~rule:rule.Rules.ttl
             ~script:script.Cgi.Script.ttl ~default:c.ctx.cfg.Config.default_ttl)
    | Some f -> (
        match
          Cache.Freshness.effective_ttl ~rule:rule.Rules.ttl
            ~script:script.Cgi.Script.ttl ~default:None
        with
        | Some _ as t -> Ttl t
        | None -> Controller f)
  in
  let threshold =
    Option.value rule.Rules.threshold ~default:c.ctx.cfg.Config.cache_threshold
  in
  { attempt; ttl; threshold }

(* Insert a freshly computed result: the node's store plus the plane's
   local bookkeeping. Returns the new entry and the evicted ones, for the
   plane to announce after the client is answered (Figure 2 broadcasts
   after returning the result). *)
let insert_result c (nd : t) ~key ~body ~exec_time ttl =
  with_span c.ctx nd "insert" @@ fun () ->
  Sim.Cpu.consume nd.cpu Config.insert_cost;
  let created = now () in
  (* Feed the controller before asking it: this very recomputation is an
     observation of the key's cost and update gap. *)
  Option.iter
    (fun f ->
      Cache.Freshness.observe_insert f ~now:created ~cost:exec_time key)
    nd.fresh;
  let ttl =
    match ttl with
    | Ttl t -> t
    | Controller f ->
        Some (Cache.Freshness.ttl f ~now:created ~cost:exec_time key)
  in
  let meta =
    Cache.Meta.make ~key ~owner:nd.id ~size:(Http.Body.length body) ~exec_time
      ~created
      ~expires:(Option.map (fun t -> created +. t) ttl)
  in
  let evicted =
    match c.packed with Packed ((module P), p) -> P.insert p nd meta body
  in
  incr nd K.inserts;
  (meta, evicted)

let announce c nd (meta, evicted) =
  match c.packed with Packed ((module P), p) -> P.announce p nd meta ~evicted

(* ------------------------------------------------------------------ *)
(* CGI execution (Figure 2's "Exec CGI, tee results to file") *)

(* The result [script] produces for [key], described: its size comes from
   the query, its bytes from the script. *)
let script_body (script : Cgi.Script.t) ~query key =
  Cgi.Script.body script ~key
    ~bytes:(Cgi.Cost.output_bytes_for script.Cgi.Script.cost ~query)

(* Run [script] once on [nd]: draw its demand from [rng], charge fork/exec
   and the demand on the node's CPU, then draw its failure from [rng].
   Returns the result's body and the demand, or [None] if it failed. *)
let run_script c (nd : t) rng (script : Cgi.Script.t) ~query key =
  let cost = script.Cgi.Script.cost in
  let demand = Cgi.Cost.demand_for cost rng ~query in
  Sim.Cpu.consume nd.cpu
    ((cost.Cgi.Cost.fork_exec
     *. c.ctx.cfg.Config.model.Config.cgi_overhead_factor)
    +. demand);
  let rate = script.Cgi.Script.failure_rate in
  if rate > 0. && Sim.Rng.float rng < rate then None
  else Some (script_body script ~query key, demand)

let exec_cgi c (nd : t) (script : Cgi.Script.t) req key =
  with_span c.ctx nd "cgi.exec"
    ~attrs:(fun () -> [ ("script", script.Cgi.Script.name) ])
  @@ fun () ->
  (match Hashtbl.find_opt nd.in_flight key with
  | Some n when n > 0 ->
      (* First kind of false miss: an identical request is already being
         executed on this node and we run it again anyway (§4.2). *)
      incr nd K.false_miss_concurrent;
      Hashtbl.replace nd.in_flight key (n + 1)
  | Some _ | None -> Hashtbl.replace nd.in_flight key 1);
  incr nd K.cgi_execs;
  let result =
    run_script c nd nd.rng script ~query:req.Http.Request.uri.Http.Uri.query
      key
  in
  (match Hashtbl.find_opt nd.in_flight key with
  | Some 1 -> Hashtbl.remove nd.in_flight key
  | Some n -> Hashtbl.replace nd.in_flight key (n - 1)
  | None -> ());
  if Option.is_none result then incr nd K.cgi_failures;
  result

(* Execute, optionally insert in the cache, respond, then announce. *)
let exec_and_respond c (nd : t) (env : Node.env) (script : Cgi.Script.t) key
    ~(ctl : cache_ctl) =
  match exec_cgi c nd script env.req key with
  | None ->
      respond c nd env
        (Http.Response.error Http.Status.Internal_server_error "CGI failed")
  | Some (body, exec_time) -> (
      let inserted =
        if ctl.attempt && exec_time >= ctl.threshold then
          Some (insert_result c nd ~key ~body ~exec_time ctl.ttl)
        else begin
          if ctl.attempt then incr nd K.below_threshold;
          None
        end
      in
      Sim.Cpu.consume nd.cpu
        (c.ctx.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length body));
      (* Figure 2 answers the client before broadcasting; under the strong
         protocol the whole point is that the reply implies every replica
         already knows, so the order flips. *)
      match (c.ctx.cfg.Config.consistency, inserted) with
      | _, None -> respond c nd env (Http.Response.ok body)
      | Config.Weak, Some i ->
          respond c nd env (Http.Response.ok body);
          announce c nd i
      | Config.Strong, Some i ->
          announce c nd i;
          respond c nd env (Http.Response.ok body))

(* ------------------------------------------------------------------ *)
(* Cache hit paths *)

(* Host-side freshness bookkeeping at a cache hit (either kind): sample
   the served result's age, count it stale when the adaptive controller
   admitted more age than the fixed default_ttl anchor would have, and
   credit the owner's latest proactive refresh with the execution it
   displaced (first hit after the refresh pops the pending credit). Pure
   observation — no simulated effects — so recording perturbs nothing. *)
let note_hit_freshness c (nd : t) (meta : Cache.Meta.t) =
  let age = Cache.Meta.age meta ~now:(now ()) in
  Metrics.Histogram.add c.staleness age;
  (match (nd.fresh, c.ctx.cfg.Config.default_ttl) with
  | Some _, Some anchor when age > anchor -> incr nd K.stale_served
  | _ -> ());
  let owner = meta.Cache.Meta.owner in
  if owner >= 0 && owner < Array.length c.ctx.nodes then begin
    let ond = c.ctx.nodes.(owner) in
    match Hashtbl.find_opt ond.refreshed meta.Cache.Meta.key with
    | Some saved ->
        Hashtbl.remove ond.refreshed meta.Cache.Meta.key;
        Metrics.Counter.add ond.counters K.refresh_saved_ms
          (int_of_float (Float.round (saved *. 1000.)))
    | None -> ()
  end

let serve_local c (nd : t) env ~t0 (entry : Cache.Store.entry) =
  incr nd K.hit_local;
  note_hit_freshness c nd entry.Cache.Store.meta;
  with_span c.ctx nd "hit.local" (fun () ->
      Sim.Cpu.consume nd.cpu Config.local_fetch_cost;
      (* The result file is recently used, hence in the OS buffer cache. *)
      Sim.Disk.read nd.disk ~bytes:entry.Cache.Store.meta.Cache.Meta.size
        ~cached:true;
      Sim.Cpu.consume nd.cpu
        (c.ctx.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length entry.Cache.Store.body)));
  respond c nd env (Http.Response.ok entry.Cache.Store.body);
  Metrics.Sample.add c.hit_latency (now () -. t0)

let fetch_remote c (nd : t) env (script : Cgi.Script.t) key ~(ctl : cache_ctl)
    ~t0 owner =
  (* The span's body ends in the fetch, so nothing it allocates stays
     reachable from the waiting stack. *)
  let answer, retries =
    with_span c.ctx nd "fetch.remote"
      ~attrs:(fun () -> [ ("owner", string_of_int owner) ])
    @@ fun () ->
    Sim.Cpu.consume nd.cpu Config.remote_fetch_cost;
    let cfg = c.ctx.cfg in
    Node.fetch_sync ~span:(Node.span_of c.ctx) c.ctx.net ~src:nd.id ~owner
      c.ctx.nodes.(owner).data_mb
      ~timeout:(Option.value cfg.Config.fetch_timeout ~default:infinity)
      ~retries:cfg.Config.fetch_retries key
  in
  if retries > 0 then Metrics.Counter.add nd.counters K.fetch_retries retries;
  match answer with
  | None ->
      (* Request or reply lost (or owner unreachable): give up on the
         remote copy and execute locally, like a false hit. A fetch that
         survives every retry marks the owner as suspect — most likely
         crashed or partitioned. *)
      incr nd K.fetch_timeouts;
      (match c.packed with
      | Packed ((module P), p) -> P.unreachable p nd ~owner key);
      exec_and_respond c nd env script key ~ctl
  | Some (Node.Hit { meta = served; body }) ->
      incr nd K.hit_remote;
      (* Use the owner's reply meta, not the directory's view: the entry
         may have been refreshed since the directory lookup. *)
      note_hit_freshness c nd served;
      Sim.Cpu.consume nd.cpu
        (c.ctx.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length body));
      respond c nd env (Http.Response.ok body);
      Metrics.Sample.add c.hit_latency (now () -. t0)
  | Some (Node.Miss _) ->
      (* False hit: the entry vanished at the owner after our directory
         lookup. Execute locally, as in Figure 2. *)
      incr nd K.false_hit;
      (match c.packed with Packed ((module P), p) -> P.false_hit p nd key);
      exec_and_respond c nd env script key ~ctl

(* ------------------------------------------------------------------ *)
(* Figure 2 control flow *)

let handle_cgi c (nd : t) (env : Node.env) (script : Cgi.Script.t) =
  let key = Http.Request.cache_key env.req in
  let ctl = cache_ctl_for c nd script env.req.Http.Request.meth in
  if not ctl.attempt then begin
    incr nd K.uncacheable;
    exec_and_respond c nd env script key ~ctl
  end
  else begin
    (* Every cache-directed access feeds the key's rate estimate — hits
       and misses alike, since both are demand for a fresh result. *)
    Option.iter
      (fun f -> Cache.Freshness.observe_access f ~now:(now ()) key)
      nd.fresh;
    let t0 = now () in
    match c.packed with
    | Packed ((module P), p) -> (
        match P.lookup p nd key with
        | Plane.Absent -> exec_and_respond c nd env script key ~ctl
        | Plane.At owner -> fetch_remote c nd env script key ~ctl ~t0 owner
        | (Plane.Here | Plane.Told_here) as v -> (
            match Cache.Store.lookup nd.store key with
            | Some entry -> serve_local c nd env ~t0 entry
            | None ->
                P.stale p nd key v;
                exec_and_respond c nd env script key ~ctl))
  end

let handle c (nd : t) (env : Node.env) =
  with_span c.ctx nd "handle" ~parent:env.span
    ~attrs:(fun () -> [ ("path", env.req.Http.Request.uri.Http.Uri.path) ])
  @@ fun () ->
  incr nd K.requests;
  if not nd.up then begin
    (* The node is crashed; the connection front-end answers on its behalf
       with 503 rather than letting the client hang. *)
    incr nd K.rejected_down;
    respond c nd env
      (Http.Response.error Http.Status.Service_unavailable "node down")
  end
  else begin
  let active_at_arrival = nd.active in
  nd.active <- nd.active + 1;
  let model = c.ctx.cfg.Config.model in
  Sim.Cpu.consume nd.cpu
    (model.Config.accept_cost +. model.Config.per_request_fork
    +. (model.Config.contention_coeff *. float_of_int active_at_arrival));
  (match Cgi.Registry.resolve c.registry env.req.Http.Request.uri.Http.Uri.path with
  | None ->
      incr nd K.not_found;
      respond c nd env
        (Http.Response.error Http.Status.Not_found
           env.req.Http.Request.uri.Http.Uri.path)
  | Some (Cgi.Registry.Static_file { bytes; _ }) ->
      incr nd K.file_fetches;
      let cached = Sim.Rng.float nd.rng < Config.fs_cache_hit in
      Sim.Disk.read nd.disk ~bytes ~cached;
      let body = file_body bytes in
      Sim.Cpu.consume nd.cpu
        (model.Config.per_byte_send *. float_of_int (Http.Body.length body));
      respond c nd env (Http.Response.ok body)
  | Some (Cgi.Registry.Cgi_script script) -> handle_cgi c nd env script);
  nd.active <- nd.active - 1
  end

(* ------------------------------------------------------------------ *)
(* Daemons (the HTTP module's request threads and the purge thread; the
   plane starts the cacher module's receivers) *)

let request_thread c (nd : t) =
  let rec loop () =
    let env = Sim.Mailbox.recv nd.listen in
    handle c nd env;
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Node crash and restart (fault injection).

   A crash is fail-stop with total cache-state loss: the store, the node's
   own directory table and the in-flight bookkeeping are wiped, and while
   down the node neither answers fetches nor applies directory updates
   (the network additionally drops its traffic). Requests already being
   processed run to completion — the simulator models losing the cache,
   not killing OS processes mid-request; this only makes the measured
   degradation an underestimate.

   A restart is cold: the node rejoins with empty tables and re-announces
   entries one by one as it repopulates (each insert broadcasts, exactly
   like a first boot) — the weak-consistency repair story, with no global
   resynchronisation. Peers may still hold stale entries owned by the
   crashed node; those are repaired lazily, either by the suspect purge on
   fetch-timeout exhaustion or by a Miss reply after the restart. *)

let crash c (nd : t) =
  if nd.up then begin
    nd.up <- false;
    incr nd K.crashes;
    ignore (Cache.Store.clear nd.store : int);
    (match c.packed with Packed ((module P), p) -> P.crash p nd);
    Hashtbl.reset nd.in_flight;
    (* The freshness tracker's rate estimates describe a cache that no
       longer exists; restart from a cold controller, like the store. *)
    Option.iter Cache.Freshness.clear nd.fresh;
    Hashtbl.reset nd.refreshed
  end

let restart (nd : t) =
  if not nd.up then begin
    nd.up <- true;
    incr nd K.restarts
  end

(* Runs while its node is down, and once more after [stop]. *)
let purge_daemon c (nd : t) =
  Node.every ~stopped:(fun () -> nd.stop) ~period:Config.purge_interval
    (fun () ->
      (* Trim the freshness tracker's cold keys on the same cadence; pure
         host-side bookkeeping, so it perturbs nothing. *)
      Option.iter
        (fun f -> ignore (Cache.Freshness.sweep f ~now:(now ()) : int))
        nd.fresh;
      let expired = Cache.Store.purge_expired nd.store in
      List.iter
        (fun (m : Cache.Meta.t) ->
          incr nd K.purged;
          match c.packed with
          | Packed ((module P), p) -> P.delete p nd m.Cache.Meta.key)
        expired)

(* ------------------------------------------------------------------ *)
(* Proactive refresh (the freshness plane's daemon).

   Once per [Config.refresh_interval] each node scans its own store for
   entries expiring within two intervals and re-executes the hot,
   expensive ones off the critical path, spending at most
   [refresh_budget] executions per second (token bucket with one
   interval of carry). A refreshed
   entry is re-inserted with a fresh TTL (adaptive or fixed, like any
   insert) and re-announced to the directory, so the next client hit
   serves a young result instead of missing and paying the recomputation
   — refresh_saved_ms credits exactly those displaced executions
   (note_hit_freshness pops the pending credit on the first hit).

   Candidate order is deterministic: most expensive first (the biggest
   saving per token), then soonest-expiring, then key. "Hot" means
   accessed within [freshness_window]; an entry nobody touched recently
   would spend budget on a result nobody may ask for again. Demand and
   failure draws come from [refresh_rng] — its own salted stream — so
   the daemon never perturbs request-path randomness; with the budget at
   zero the daemon is not even spawned and runs are byte-identical to
   builds without it. *)

(* Re-execute one near-expiry entry and re-insert its result. Returns
   [true] when a budget token was spent (the CGI actually ran). *)
let refresh_entry c (nd : t) key =
  (* The key's query parameters let the refresh redraw the script's
     demand and output size as the original request did. *)
  match Http.Request.of_cache_key key with
  | None -> false
  | Some { Http.Request.uri; _ } -> (
      match Cgi.Registry.resolve c.registry uri.Http.Uri.path with
      | None | Some (Cgi.Registry.Static_file _) -> false
      | Some (Cgi.Registry.Cgi_script script) ->
          let ctl = cache_ctl_for c nd script Http.Meth.Get in
          if not ctl.attempt then false
          else begin
            with_span c.ctx nd "refresh.exec"
              ~attrs:(fun () -> [ ("script", script.Cgi.Script.name) ])
            @@ fun () ->
            (match
               run_script c nd nd.refresh_rng script ~query:uri.Http.Uri.query
                 key
             with
            | Some (body, demand) when demand >= ctl.threshold ->
                let inserted =
                  insert_result c nd ~key ~body ~exec_time:demand ctl.ttl
                in
                incr nd K.refreshes;
                Hashtbl.replace nd.refreshed key demand;
                announce c nd inserted
            | Some _ | None -> ());
            true
          end)

let refresh_daemon c (nd : t) ~budget =
  let interval = Config.refresh_interval in
  let credit = ref 0. in
  Node.every ~stopped:(fun () -> nd.stop) ~period:interval (fun () ->
      if nd.up && not nd.stop then begin
        (* Token bucket: earn one interval's worth per tick, carry at most
           one more interval's worth, so an idle period cannot bank an
           unbounded burst. *)
        credit :=
          Float.min (2. *. budget *. interval) (!credit +. (budget *. interval));
        let hot_window = c.ctx.cfg.Config.freshness_window in
        let candidates =
          Cache.Store.expiring nd.store ~now:(now ()) ~horizon:(2. *. interval)
        in
        let worthwhile =
          List.filter
            (fun (cand : Cache.Store.candidate) ->
              cand.Cache.Store.c_hits > 0
              && now () -. cand.Cache.Store.c_last_access <= hot_window)
            candidates
          |> List.sort (fun (a : Cache.Store.candidate) b ->
                 let c =
                   Float.compare
                     b.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.exec_time
                     a.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.exec_time
                 in
                 if c <> 0 then c
                 else
                   let c =
                     Float.compare a.Cache.Store.c_expires
                       b.Cache.Store.c_expires
                   in
                   if c <> 0 then c
                   else
                     String.compare
                       a.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key
                       b.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key)
        in
        List.iter
          (fun (cand : Cache.Store.candidate) ->
            if !credit >= 1. && nd.up && not nd.stop then
              if
                refresh_entry c nd
                  cand.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key
              then credit := !credit -. 1.)
          worthwhile
      end)

let start c =
  let cfg = c.ctx.cfg in
  match c.packed with
  | Packed ((module P), p) -> (
      Array.iter
        (fun (nd : t) ->
          for _ = 1 to cfg.Config.threads_per_node do
            Sim.Engine.spawn c.ctx.engine (fun () -> request_thread c nd)
          done;
          match cfg.Config.cache_mode with
          | Config.Disabled -> ()
          | Config.Standalone | Config.Cooperative ->
              Sim.Engine.spawn c.ctx.engine (fun () -> purge_daemon c nd);
              if cfg.Config.refresh_budget > 0. then
                Sim.Engine.spawn c.ctx.engine (fun () ->
                    refresh_daemon c nd ~budget:cfg.Config.refresh_budget);
              P.start p nd)
        c.ctx.nodes;
      (* Schedule the fault plan's crash/restart instants as plain events; the
         handles are kept so [stop] can cancel whatever has not yet fired. *)
      match c.fault with
      | None -> ()
      | Some f ->
          let now = Sim.Engine.current_time c.ctx.engine in
          Array.iter
            (fun (nd : t) ->
              List.iter
                (fun (down_at, up_at) ->
                  if down_at >= now then
                    c.fault_handles <-
                      Sim.Engine.schedule_at c.ctx.engine down_at (fun () ->
                          crash c nd;
                          emit_instant c ~track:nd.id "crash";
                          P.handoff p ~died:nd.id ())
                      :: c.fault_handles;
                  if up_at >= now then
                    c.fault_handles <-
                      Sim.Engine.schedule_at c.ctx.engine up_at (fun () ->
                          restart nd;
                          emit_instant c ~track:nd.id "restart";
                          P.handoff p ())
                      :: c.fault_handles)
                (Sim.Fault.schedule f ~node:nd.id))
            c.ctx.nodes;
          (* Each partition's heal instant is observable: node 0 counts it, so
             experiments can report how many splits a run actually saw end. *)
          List.iter
            (fun (part : Sim.Fault.partition) ->
              if part.Sim.Fault.heal_at >= now then
                c.fault_handles <-
                  Sim.Engine.schedule_at c.ctx.engine part.Sim.Fault.heal_at
                    (fun () ->
                      incr c.ctx.nodes.(0) K.partitions_healed;
                      emit_instant c ~track:0 "partition.heal";
                      (* announcements dropped at the cut are unrecoverable
                         point-to-point losses: let the plane repair *)
                      P.handoff p ())
                  :: c.fault_handles)
            (Sim.Fault.partitions f))

let stop c =
  Array.iter (fun (nd : t) -> nd.stop <- true) c.ctx.nodes;
  (* Cancel pending crash/restart events: without this a fault plan whose
     horizon outlives the workload would keep the engine ticking long after
     the last client finished. *)
  List.iter Sim.Engine.cancel c.fault_handles;
  c.fault_handles <- []

let submit c ~client ~node req =
  if node < 0 || node >= Array.length c.ctx.nodes then
    invalid_arg "Server.submit: node out of range";
  let nd = c.ctx.nodes.(node) in
  let span = Node.span_of c.ctx in
  Sim.Net.transfer c.ctx.net ~src:client ~dst:node
    ~bytes:(Http.Request.wire_size req);
  Sim.Engine.suspend (fun resume ->
      Sim.Mailbox.send nd.listen { Node.req; client; resume; span })

let preload c ~node req ~exec_time =
  if node < 0 || node >= Array.length c.ctx.nodes then
    invalid_arg "Server.preload: node out of range";
  let nd = c.ctx.nodes.(node) in
  let key = Http.Request.cache_key req in
  match Cgi.Registry.resolve c.registry req.Http.Request.uri.Http.Uri.path with
  | Some (Cgi.Registry.Cgi_script script) ->
      let body =
        script_body script ~query:req.Http.Request.uri.Http.Uri.query key
      in
      let ctl = cache_ctl_for c nd script Http.Meth.Get in
      announce c nd (insert_result c nd ~key ~body ~exec_time ctl.ttl)
  | Some (Cgi.Registry.Static_file _) | None ->
      invalid_arg "Server.preload: request does not resolve to a CGI script"

(* ------------------------------------------------------------------ *)
(* Invalidation (the paper's §4.2 future work: application-driven
   invalidation messages and source-monitoring invalidation) *)

let delete_everywhere c pred =
  let removed = ref 0 in
  Array.iter
    (fun (nd : t) ->
      let victims = Cache.Store.remove_matching nd.store pred in
      List.iter
        (fun (m : Cache.Meta.t) ->
          incr nd K.invalidations;
          removed := !removed + 1;
          match c.packed with
          | Packed ((module P), p) -> P.delete p nd m.Cache.Meta.key)
        victims)
    c.ctx.nodes;
  !removed

let invalidate c ~key = delete_everywhere c (String.equal key)

let invalidate_script c ~script =
  (* Match on the key's path so every argument combination is dropped. *)
  delete_everywhere c (fun key ->
      match Http.Request.of_cache_key key with
      | Some req -> String.equal req.Http.Request.uri.Http.Uri.path script
      | None -> false)

let node_active (nd : t) = nd.active
let node_up (nd : t) = nd.up
let node_listen_depth (nd : t) = Sim.Mailbox.length nd.listen
let fault c = c.fault
let staleness_histogram c = c.staleness

let record_plane_stats c =
  match c.packed with Packed ((module P), p) -> P.record_stats p

let dir_entries c i =
  match c.packed with Packed ((module P), p) -> P.entries p i

let backlog c i =
  match c.packed with
  | Packed ((module P), p) ->
      Sim.Mailbox.length c.ctx.nodes.(i).data_mb + P.backlog p i

let dir_lock_acquisitions c i =
  match c.packed with Packed ((module P), p) -> P.lock_acquisitions p i

let hit_latency c = c.hit_latency
let forward_wait_histogram c = c.fwd_wait
