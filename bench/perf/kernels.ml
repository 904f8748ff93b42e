(* Kernel timings: the host cost of one call into a layer's public
   interface, replaying one workload instance's own inputs — its key
   stream, its wire requests, its node count, cache capacity and policy.
   A kernel is timed whether or not the workload's configuration calls
   that layer; the counters of the run say whether it does.

   Simulated charges (lock overheads, CPU demands) are switched off or
   kept tiny where the interface allows: a kernel measures host time, not
   simulated time. *)

type inputs = {
  cfg : Swala.Config.t;
  n_streams : int;
  keys : string array;  (** cache keys of the CGI items, in trace order *)
  metas : Cache.Meta.t array;  (** one per distinct key, first-seen order *)
  wires : string array;  (** every request as the client sends it *)
  cpu_jobs : int;  (** concurrent jobs for the CPU kernel, [>= 1] *)
}

(* One kernel call replays at most this many operations, which keeps the
   slowest call — directory lookups probing 512 tables — near 0.1 s. *)
let max_ops = 10_000

let inputs ~cfg ~n_streams ~cpu_jobs (trace : Workload.Trace.t) =
  let seen = Hashtbl.create 1024 in
  let keys = ref [] and metas = ref [] in
  List.iter
    (fun (item : Workload.Trace.item) ->
      match item.kind with
      | Workload.Trace.File _ -> ()
      | Workload.Trace.Cgi { demand; out_bytes; _ } ->
          let key = Workload.Trace.key item in
          keys := key :: !keys;
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            metas :=
              Cache.Meta.make ~key ~owner:0 ~size:out_bytes ~exec_time:demand
                ~created:0. ~expires:None
              :: !metas
          end)
    trace;
  let first n l =
    let a = Array.of_list (List.rev l) in
    Array.sub a 0 (min n (Array.length a))
  in
  {
    cfg;
    n_streams;
    keys = first max_ops !keys;
    metas = first max_ops !metas;
    wires =
      first max_ops
        (List.rev_map
           (fun item ->
             Http.Request.to_wire (Workload.Trace.to_request item))
           trace);
    cpu_jobs = max 1 cpu_jobs;
  }

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [time_ops ~min_time f] calls [f] — which returns how many operations it
   performed — at least three times and for at least [min_time] CPU
   seconds, and returns the median host nanoseconds per operation. *)
let time_ops ~min_time f =
  let s = Metrics.Sample.create () in
  let start = cpu_seconds () in
  let rec go calls =
    let t0 = cpu_seconds () in
    let ops = f () in
    let dt = cpu_seconds () -. t0 in
    Metrics.Sample.add s (dt *. 1e9 /. float_of_int (max 1 ops));
    if calls < 3 || cpu_seconds () -. start < min_time then go (calls + 1)
  in
  go 1;
  Metrics.Sample.median s

(* Runs [f] as the only process of a fresh engine. *)
let in_process f =
  let e = Sim.Engine.create () in
  let r = ref 0 in
  Sim.Engine.spawn e (fun () -> r := f ());
  Sim.Engine.run e;
  !r

let no_charge (_ : float) = ()
let body = String.make 64 'x'
let n_ops inp = max 1 (Array.length inp.keys)

let engine_bare inp () =
  let per = max 1 (n_ops inp / inp.n_streams) in
  let e = Sim.Engine.create () in
  for _ = 1 to inp.n_streams do
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to per do
          Sim.Engine.delay 1e-3
        done)
  done;
  Sim.Engine.run e;
  Sim.Engine.events_processed e

let cpu_consume inp () =
  let cfg = inp.cfg in
  let per = max 1 (n_ops inp / inp.cpu_jobs) in
  let e = Sim.Engine.create () in
  let cpu =
    Sim.Cpu.create ~speed:cfg.Swala.Config.cpu_speed e
      ~cores:cfg.Swala.Config.cores_per_node
  in
  for _ = 1 to inp.cpu_jobs do
    Sim.Engine.spawn e (fun () ->
        for _ = 1 to per do
          Sim.Cpu.consume cpu 1e-3
        done)
  done;
  Sim.Engine.run e;
  inp.cpu_jobs * per

let net_send inp () =
  let cfg = inp.cfg in
  let n = cfg.Swala.Config.n_nodes + inp.n_streams in
  let e = Sim.Engine.create () in
  let net =
    Sim.Net.create ~latency:cfg.Swala.Config.net_latency
      ~bandwidth:cfg.Swala.Config.net_bandwidth e ~n_endpoints:n
  in
  let mb = Sim.Mailbox.create () in
  let m = n_ops inp in
  Sim.Engine.spawn e (fun () ->
      for i = 0 to m - 1 do
        Sim.Net.send net ~src:0 ~dst:(1 + (i mod (n - 1))) ~bytes:128 mb i
      done);
  Sim.Engine.run e;
  m

let mailbox_send_recv inp () =
  let m = n_ops inp in
  let e = Sim.Engine.create () in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to m do
        ignore (Sim.Mailbox.recv mb : int)
      done);
  Sim.Engine.spawn e (fun () ->
      for i = 1 to m do
        Sim.Mailbox.send mb i;
        Sim.Engine.yield ()
      done);
  Sim.Engine.run e;
  m

let store inp =
  let now = ref 0. in
  let s =
    Cache.Store.create ~capacity:inp.cfg.Swala.Config.cache_capacity
      ~policy:inp.cfg.Swala.Config.policy
      ~clock:(fun () -> !now)
      ~rng:(Sim.Rng.create 1) ()
  in
  (s, now)

let store_insert inp () =
  let s, now = store inp in
  Array.iter
    (fun meta ->
      now := !now +. 1e-3;
      ignore (Cache.Store.insert s meta body : Cache.Meta.t list))
    inp.metas;
  Array.length inp.metas

let store_lookup inp =
  let s, now = store inp in
  Array.iter (fun meta -> ignore (Cache.Store.insert s meta body)) inp.metas;
  fun () ->
    Array.iter
      (fun key ->
        now := !now +. 1e-3;
        ignore (Cache.Store.lookup s key : Cache.Store.entry option))
      inp.keys;
    Array.length inp.keys

let directory inp =
  let cfg = inp.cfg in
  Cache.Directory.create ~granularity:cfg.Swala.Config.dir_granularity
    ~scan_cost:0. ~charge:no_charge ~hints:cfg.Swala.Config.dir_hints
    ~nodes:cfg.Swala.Config.n_nodes ()

let dir_fill inp d =
  let n = inp.cfg.Swala.Config.n_nodes in
  Array.iteri
    (fun i meta -> Cache.Directory.insert d ~node:(i mod n) meta)
    inp.metas;
  Array.length inp.metas

let directory_insert inp () =
  let d = directory inp in
  in_process (fun () -> dir_fill inp d)

let directory_lookup inp =
  let d = directory inp in
  ignore (in_process (fun () -> dir_fill inp d) : int);
  fun () ->
    in_process (fun () ->
        Array.iter
          (fun key ->
            ignore
              (Cache.Directory.lookup_from d ~self:0 ~now:0. key
                : Cache.Meta.t option))
          inp.keys;
        Array.length inp.keys)

let ring inp =
  Cache.Ring.create ~nodes:inp.cfg.Swala.Config.n_nodes
    ~vnodes:inp.cfg.Swala.Config.shard_vnodes

let ring_create inp () =
  ignore (ring inp : Cache.Ring.t);
  1

let ring_acting_owner inp =
  let r = ring inp in
  let up (_ : int) = true in
  fun () ->
    Array.iter
      (fun key -> ignore (Cache.Ring.acting_owner r ~up key : int option))
      inp.keys;
    Array.length inp.keys

let shard_table_find inp =
  let t = Cache.Shard_table.create ~charge:no_charge () in
  ignore
    (in_process (fun () ->
         Array.iter (fun meta -> ignore (Cache.Shard_table.insert t meta)) inp.metas;
         0)
      : int);
  fun () ->
    Array.iter
      (fun key -> ignore (Cache.Shard_table.find t key : Cache.Meta.t option))
      inp.keys;
    Array.length inp.keys

let lookup_cache_find inp =
  let cfg = inp.cfg in
  let c =
    Cache.Lookup_cache.create
      ~capacity:(max 1 cfg.Swala.Config.shard_lookup_cache)
      ~pos_ttl:cfg.Swala.Config.shard_pos_ttl
      ~neg_ttl:cfg.Swala.Config.shard_neg_ttl
  in
  Array.iter (fun meta -> Cache.Lookup_cache.note_pos c ~now:0. meta) inp.metas;
  fun () ->
    Array.iter
      (fun key ->
        ignore (Cache.Lookup_cache.find c ~now:0. key : Cache.Lookup_cache.verdict))
      inp.keys;
    Array.length inp.keys

let freshness_ttl inp =
  let cfg = inp.cfg in
  let f =
    Cache.Freshness.create ~min_ttl:cfg.Swala.Config.freshness_min_ttl
      ~max_ttl:cfg.Swala.Config.freshness_max_ttl
      ~penalty:cfg.Swala.Config.freshness_penalty
      ~window:cfg.Swala.Config.freshness_window ()
  in
  Array.iteri
    (fun i key ->
      Cache.Freshness.observe_access f ~now:(float_of_int i *. 1e-3) key)
    inp.keys;
  let now = float_of_int (Array.length inp.keys) *. 1e-3 in
  fun () ->
    Array.iter
      (fun key -> ignore (Cache.Freshness.ttl f ~now ~cost:0.01 key : float))
      inp.keys;
    Array.length inp.keys

let http_parse inp () =
  Array.iter
    (fun w ->
      match Http.Request.parse w with
      | Ok _ -> ()
      | Error e -> failwith ("http.parse kernel: " ^ e))
    inp.wires;
  Array.length inp.wires

(* Every kernel, by metric name: the factor from ns per operation to the
   metric's unit (ring.create_ms is one whole ring build, in ms), and a
   function that prepares the kernel's state and returns the timed call. *)
let all inp =
  [
    ("engine.bare_ns_per_event", 1., fun () -> engine_bare inp);
    ("cpu.consume_ns", 1., fun () -> cpu_consume inp);
    ("net.send_ns", 1., fun () -> net_send inp);
    ("mailbox.send_recv_ns", 1., fun () -> mailbox_send_recv inp);
    ("store.lookup_ns", 1., fun () -> store_lookup inp);
    ("store.insert_ns", 1., fun () -> store_insert inp);
    ("directory.lookup_ns", 1., fun () -> directory_lookup inp);
    ("directory.insert_ns", 1., fun () -> directory_insert inp);
    ("ring.create_ms", 1e-6, fun () -> ring_create inp);
    ("ring.acting_owner_ns", 1., fun () -> ring_acting_owner inp);
    ("shard_table.find_ns", 1., fun () -> shard_table_find inp);
    ("lookup_cache.find_ns", 1., fun () -> lookup_cache_find inp);
    ("freshness.ttl_ns", 1., fun () -> freshness_ttl inp);
    ("http.parse_ns", 1., fun () -> http_parse inp);
  ]
