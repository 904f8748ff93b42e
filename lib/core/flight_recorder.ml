module K = Server.K

(* The response accumulator pair is the cumulative (count, sum) the
   [response] probe diffs per window; [stopped] ends the sampler like a
   node's daemons. *)
type t = {
  registry : Metrics.Registry.t;
  health : Metrics.Health.t;
  mutable resp_n : float;
  mutable resp_sum : float;
  mutable stopped : bool;
}

(* Probe readers. Every one is a pure read of already-maintained state,
   so sampling records values without perturbing any simulated quantity.
   [Counter.get] reads without creating entries, so probing a counter
   that never fires leaves the counter set untouched. *)
let total xs f () =
  float_of_int (Array.fold_left (fun acc x -> acc + f x) 0 xs)

let counter key nd = Metrics.Counter.get (Server.node_counters nd) key
let hits nd = counter K.hit_local nd + counter K.hit_remote nd

let histogram h () =
  (float_of_int (Metrics.Histogram.count h), Metrics.Histogram.total h)

(* Cumulative cluster signals for the health monitor, read at each tick.
   All are O(nodes) counter/length reads. *)
let health_signals nodes cluster =
  let stale_count, stale_total =
    histogram (Server.staleness_histogram cluster) ()
  in
  {
    Metrics.Health.hits = total nodes hits ();
    lookups = total nodes (counter K.requests) ();
    queue_depth =
      total nodes Server.node_listen_depth ()
      /. float_of_int (Array.length nodes);
    stale_count;
    stale_total;
  }

let register_probes t engine cluster nodes =
  let reg = t.registry in
  let ids = Array.mapi (fun i _ -> i) nodes in
  let module R = Metrics.Registry in
  R.histogram reg "hit.ratio" (fun () ->
      (total nodes (counter K.requests) (), total nodes hits ()));
  R.histogram reg "response" (fun () -> (t.resp_n, t.resp_sum));
  R.counter reg "info.rate" (total nodes (counter K.info_msgs));
  R.counter reg "batch.rate" (total nodes (counter K.batches_sent));
  R.counter reg "refresh.rate" (total nodes (counter K.refreshes));
  R.counter reg "stale.rate" (total nodes (counter K.stale_served));
  R.gauge reg "dir.entries" (total ids (Server.dir_entries cluster));
  R.gauge reg "listen.depth" (total nodes Server.node_listen_depth);
  R.gauge reg "proto.backlog" (total ids (Server.backlog cluster));
  R.histogram reg "fwd.wait"
    (histogram (Server.forward_wait_histogram cluster));
  R.histogram reg "staleness" (histogram (Server.staleness_histogram cluster));
  (* Engine self-telemetry: queued events vs the capacity one heap
     holding them would have grown to, the event execution rate, and the
     allocation rate of the host program itself. *)
  R.gauge reg "engine.heap" (fun () ->
      float_of_int (Sim.Engine.pending engine));
  R.gauge reg "engine.heap_cap" (fun () ->
      float_of_int (Sim.Engine.heap_capacity engine));
  R.counter reg "engine.events.rate" (fun () ->
      float_of_int (Sim.Engine.events_processed engine));
  R.counter reg "gc.minor_words.rate" (fun () -> Gc.minor_words ());
  Array.iteri
    (fun i nd ->
      let pfx = Printf.sprintf "n%d." i in
      (* busy CPU-seconds are cumulative, so the per-second rate of this
         counter is the node's utilisation over the window *)
      R.counter reg (pfx ^ "util") (fun () ->
          Sim.Cpu.busy_time (Server.node_cpu nd));
      R.gauge reg (pfx ^ "active") (fun () ->
          float_of_int (Server.node_active nd));
      R.counter reg (pfx ^ "hits.rate") (fun () -> float_of_int (hits nd)))
    nodes

(* One cluster-level daemon reading every probe and closing a health
   window each interval. *)
let sampler t nodes cluster ~interval =
  Node.every ~stopped:(fun () -> t.stopped) ~period:interval (fun () ->
      if not t.stopped then begin
        let now = Sim.Engine.now () in
        Metrics.Registry.sample t.registry ~time:now;
        Metrics.Health.tick t.health ~now (health_signals nodes cluster)
      end)

let create engine cluster cfg ~interval =
  let t =
    {
      registry = Metrics.Registry.create ~interval ();
      health =
        Metrics.Health.create
          ~config:
            {
              Metrics.Health.default_config with
              slo_target = cfg.Config.slo_target;
            }
          ~interval ();
      resp_n = 0.;
      resp_sum = 0.;
      stopped = false;
    }
  in
  let nodes = Array.init (Server.n_nodes cluster) (Server.node cluster) in
  register_probes t engine cluster nodes;
  Sim.Engine.spawn engine (fun () -> sampler t nodes cluster ~interval);
  t

let stop t = t.stopped <- true

(* Pure host-side accumulation, plus the health monitor's window
   counters. *)
let observe_response t dt =
  t.resp_n <- t.resp_n +. 1.;
  t.resp_sum <- t.resp_sum +. dt;
  Metrics.Health.observe_response t.health dt

let registry t = t.registry
let health t = t.health
