(* Host-performance benchmark of the Swala simulator.

   Four workloads (workloads.ml), each replayed through the public
   interface only — Workload generators, Config.make/validate,
   Server.create_cluster, Cluster_runner.run and result_to_json — in one
   process on one domain: every simulated client stream is a coroutine of
   the engine, so host time measures the simulator, not the OS scheduler.

   Run protocol, per workload:
   1. a forked child replays instance 0 once and reports the peak heap
      (top_heap_words only grows, so it is read in a fresh process);
   2. one warm-up replay of instance 0 (a cold first replay runs slower);
   3. rounds of two timed set-ups (trace generation, Config.validate,
      Server.create_cluster on a fresh engine: [setup_s]) and one measured
      replay, one instance after the other, until every instance has run
      once and [--seconds] have passed. With several workloads the rounds
      are interleaved, so that a slow spell of the host slows every
      workload a little rather than one workload a lot;
   4. with [--trace 1], one traced replay of instance 0 and the kernel
      timings (kernels.ml).

   An instance is the workload generated from a sub-seed of [--seed]. The
   simulated metrics of a run are medians over its instances, so one run
   averages over input variation as well as host noise; they repeat
   exactly for a given seed. Host time is process CPU time.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"} with the end-to-end
   metrics, or with [--trace 1] the per-layer ones (see README.md).

   Usage, from the repository root:
     dune exec --root . -- ./bench/perf/swala_bench.exe [--workload NAME]...
       [--seed N] [--seconds S] [--trace 0|1] [--scale F]
       [--json-out FILE] [--trace-out FILE] [--check BENCHMARK.json]
     dune exec --root . -- ./bench/perf/swala_bench.exe \
       --compare A.json B.json *)

module J = Metrics.Json

let instances = 7
let sub_seed seed i = seed + (i * 1_000_003)
let cpu_seconds = Kernels.cpu_seconds

(* ------------------------------------------------------------------ *)
(* Host spans *)

(* The benchmark's own spans, on the process CPU clock: bench.setup (with
   bench.setup.generate and bench.setup.create_cluster), bench.run,
   bench.traced_run and bench.kernel.<name>, one track per workload. Every
   host time the benchmark reports is read back from a span. *)
let host = Metrics.Trace.create ~clock:cpu_seconds ()

(* [timed ~track name f] runs [f id] inside a span [id] and returns its
   result with the span's duration and self time. *)
let timed ?parent ~track name f =
  let id = Metrics.Trace.begin_span host ?parent ~track ~name () in
  let r = Fun.protect ~finally:(fun () -> Metrics.Trace.end_span host id) (fun () -> f id) in
  match Metrics.Trace.find host id with
  | Some s -> (r, s.t1 -. s.t0, s.t1 -. s.t0 -. s.child_time)
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stat = {
  median : float;
  q1 : float;
  q3 : float;
  n : int;
  deterministic : bool;
      (** the same code and seed give the same value: no host noise *)
}

let stat ?(deterministic = false) xs =
  let s = Metrics.Sample.create () in
  List.iter (Metrics.Sample.add s) xs;
  let q = Metrics.Sample.quantile s in
  { median = q 0.5; q1 = q 0.25; q3 = q 0.75; n = List.length xs; deterministic }

let median xs = (stat xs).median

(* ------------------------------------------------------------------ *)
(* Per-workload state *)

type reference = {
  json : string;  (** [result_to_json] of the instance's first replay *)
  fingerprint : string;
      (** what tracing must not change: duration, hits, counters and the
          response-time summary *)
  sim : (string * float) list;  (** the instance's simulated metrics *)
}

type rep = {
  instance : int;
  host_s : float;
  words : float;
  events : int;
  requests : int;
}

type setup = { total : float; generate : float; create : float }

type state = {
  w : Workloads.t;
  track : int;
  seed : int;
  scale : float;
  refs : reference option array;
  mutable reps : rep list;  (** measured replays, newest first *)
  mutable setups : setup list;
  mutable heap_mb : float;
  mutable heap_digest : string;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable layer : (string * float) list;  (** traced-pass and kernel metrics *)
}

let error st msg =
  let msg = Printf.sprintf "%s: %s" st.w.Workloads.name msg in
  prerr_endline ("swala_bench: " ^ msg);
  st.errors <- msg :: st.errors

let instance_inputs st i ~traced =
  let seed = sub_seed st.seed i in
  (st.w.Workloads.trace ~seed ~scale:st.scale, Workloads.config st.w ~seed ~traced)

(* ------------------------------------------------------------------ *)
(* Simulated metrics of one replay *)

let counter (r : Swala.Cluster_runner.result) = Metrics.Counter.get r.counters

let quantile_ms s q =
  match Metrics.Sample.quantile_opt s q with Some v -> v *. 1000. | None -> 0.

let hist_p99 h = match Metrics.Histogram.quantile_opt h 0.99 with Some v -> v | None -> 0.

(* Requests the client did not get a good answer for: unanswered, 503s
   the router did not retry elsewhere, CGI failures and 404s. *)
let failures (r : Swala.Cluster_runner.result) =
  let g = counter r in
  let module K = Swala.Server.K in
  r.n_requests - Metrics.Sample.count r.response
  + g K.rejected_down - g K.router_retries + g K.cgi_failures + g K.not_found

let simulated (r : Swala.Cluster_runner.result) cluster =
  let module K = Swala.Server.K in
  let g = counter r in
  let n = float_of_int (max 1 r.n_requests) in
  let per x = float_of_int x /. n in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let st = r.store_stats in
  let rd, wr = r.dir_locks in
  let lc = g K.lcache_pos_hits + g K.lcache_neg_hits in
  [
    ("sim_mean_ms", Metrics.Sample.mean r.response *. 1000.);
    ("sim_p99_ms", quantile_ms r.response 0.99);
    ("hit_ratio", r.hit_ratio);
    ("meta_msgs_per_req", per (g K.info_msgs + g K.dir_lookup_msgs));
    ("engine.events_per_req", per r.n_events);
    ( "cpu.util_mean",
      Array.fold_left ( +. ) 0. r.utilisation
      /. float_of_int (max 1 (Array.length r.utilisation)) );
    ("net.msgs_per_req", per (Sim.Net.messages_sent (Swala.Server.net cluster)));
    ("fault.crashes", float_of_int (g K.crashes));
    ("net.lost", float_of_int r.net_lost);
    ("router.retries", float_of_int (g K.router_retries));
    ("fetch.timeouts", float_of_int (g K.fetch_timeouts));
    ("fetch.retries", float_of_int (g K.fetch_retries));
    ("store.lookups_per_req", per (st.hits + st.misses));
    ("store.local_hit_ratio", Cache.Stats.hit_ratio st);
    ("store.inserts_per_req", per st.inserts);
    ("store.evictions_per_req", per st.evictions);
    ("dir.rd_locks_per_req", per rd);
    ("dir.wr_locks_per_req", per wr);
    ("dir.false_hits", float_of_int (g K.false_hit));
    ( "dir.false_misses",
      float_of_int (g K.false_miss_concurrent + g K.false_miss_duplicate) );
    ("shard.fwd_per_req", per (g K.shard_fwd_lookups));
    ("shard.lcache_hit_ratio", ratio lc (lc + g K.shard_fwd_lookups));
    ("shard.promotions", float_of_int (g K.hotspot_promotions));
    ("fresh.refreshes", float_of_int (g K.refreshes));
    ("fresh.stale_served", float_of_int (g K.stale_served));
    ("fresh.staleness_p99_s", hist_p99 r.staleness);
    ("cgi.execs_per_req", per (g K.cgi_execs));
    ("response.p50_ms", quantile_ms r.response 0.5);
  ]

let fingerprint (r : Swala.Cluster_runner.result) =
  let s = r.response in
  let q p = J.float_opt (Metrics.Sample.quantile_opt s p) in
  J.to_string
    (J.Obj
       [
         ("duration", J.Float r.duration);
         ("hits", J.Int r.hits);
         ("count", J.Int (Metrics.Sample.count s));
         ("mean", J.Float (Metrics.Sample.mean s));
         ("p50", q 0.5);
         ("p99", q 0.99);
         ("max", q 1.);
         ( "counters",
           J.Obj
             (List.map
                (fun k -> (k, J.Int (counter r k)))
                (Metrics.Counter.names r.counters)) );
       ])

(* ------------------------------------------------------------------ *)
(* Replays *)

type replay = {
  result : Swala.Cluster_runner.result;
  cluster : Swala.Server.cluster;
  host_s : float;
  words : float;
}

let replay st i ~traced =
  let trace, cfg = instance_inputs st i ~traced in
  let cluster = ref None in
  Gc.compact ();
  let m0 = Gc.minor_words () in
  let result, host_s, _ =
    timed ~track:st.track (if traced then "bench.traced_run" else "bench.run")
      (fun _ ->
        Swala.Cluster_runner.run cfg ~trace ~n_streams:st.w.Workloads.n_streams
          ?router:st.w.Workloads.router
          ~warmup:(fun c -> cluster := Some c)
          ())
  in
  let words = Gc.minor_words () -. m0 in
  match !cluster with
  | Some cluster -> { result; cluster; host_s; words }
  | None -> assert false

(* Checks one untraced replay against its instance's first replay and
   returns whether it passed. *)
let check_replay st i x =
  let r = x.result in
  let ok = ref true in
  let fail msg =
    ok := false;
    error st (Printf.sprintf "instance %d: %s" i msg)
  in
  if Metrics.Sample.count r.response <> r.n_requests then
    fail
      (Printf.sprintf "%d responses for %d requests"
         (Metrics.Sample.count r.response) r.n_requests);
  let json = Swala.Cluster_runner.result_to_json r in
  (match st.refs.(i) with
  | None ->
      st.refs.(i) <-
        Some { json; fingerprint = fingerprint r; sim = simulated r x.cluster }
  | Some ref ->
      if ref.json <> json then fail "replay differs from the instance's first replay");
  !ok

let measured_rep st k =
  let i = k mod instances in
  let x = replay st i ~traced:false in
  let ok = check_replay st i x in
  let r = x.result in
  st.reps <-
    {
      instance = i;
      host_s = x.host_s;
      words = x.words;
      events = r.n_events;
      requests = r.n_requests;
    }
    :: st.reps;
  st.attempted <- st.attempted + r.n_requests;
  st.failed <- st.failed + (if ok then failures r else r.n_requests)

(* The warm-up: the first replay of instance 0, which every later replay
   of it, and the forked child's, must match. *)
let warm_up st =
  ignore (check_replay st 0 (replay st 0 ~traced:false) : bool);
  match st.refs.(0) with
  | Some ref
    when st.heap_digest <> "" && Digest.to_hex (Digest.string ref.json) <> st.heap_digest ->
      error st "the forked replay differs from the parent's"
  | _ -> ()

(* One set-up of instance [i]: trace generation, Config.validate and
   Server.create_cluster on a fresh engine. It runs in a heap the warm-up
   replay has already grown, so it times the simulator's set-up code
   rather than the kernel's page faults, which vary from run to run. *)
let setup st i =
  Gc.full_major ();
  let seed = sub_seed st.seed i in
  let (generate, create), total, _ =
    timed ~track:st.track "bench.setup" (fun id ->
        let trace, _, generate =
          timed ~parent:id ~track:st.track "bench.setup.generate" (fun _ ->
              st.w.Workloads.trace ~seed ~scale:st.scale)
        in
        let cfg = Workloads.config st.w ~seed ~traced:false in
        let _, _, create =
          timed ~parent:id ~track:st.track "bench.setup.create_cluster" (fun _ ->
              Swala.Config.validate cfg;
              Swala.Server.create_cluster (Sim.Engine.create ()) cfg
                ~registry:(Workloads.registry trace)
                ~n_client_endpoints:st.w.Workloads.n_streams)
        in
        (generate, create))
  in
  st.setups <- { total; generate; create } :: st.setups

(* Peak heap of one replay of instance 0, read in a forked child before
   the parent has allocated anything large. The child also reports a
   digest of its result, which must equal the parent's own replay. *)
let measure_heap st =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let msg =
        try
          let x = replay st 0 ~traced:false in
          let words = (Gc.quick_stat ()).Gc.top_heap_words in
          Printf.sprintf "%d %s" (words * (Sys.word_size / 8))
            (Digest.to_hex
               (Digest.string (Swala.Cluster_runner.result_to_json x.result)))
        with e -> "error " ^ Printexc.to_string e
      in
      let oc = Unix.out_channel_of_descr wr in
      output_string oc msg;
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let msg = try input_line ic with End_of_file -> "error no reply" in
      close_in ic;
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      match String.split_on_char ' ' msg with
      | [ bytes; digest ] when int_of_string_opt bytes <> None ->
          st.heap_mb <- float_of_string bytes /. 1e6;
          st.heap_digest <- digest
      | _ -> error st ("heap child: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Traced pass and kernels *)

let traced_pass st =
  let x = replay st 0 ~traced:true in
  let r = x.result in
  (match st.refs.(0) with
  | Some ref when ref.fingerprint = fingerprint r -> ()
  | _ -> error st "the traced replay differs from the untraced one");
  let wait name = List.assoc_opt name r.wait_histograms in
  let p99_ms name =
    match wait name with Some h -> hist_p99 h *. 1000. | None -> 0.
  in
  let shares =
    match r.tracer with
    | None -> []
    | Some tr ->
        let b = Metrics.Trace.breakdown tr ~root:"request" in
        List.map
          (fun p ->
            ( "phase." ^ p ^ ".share",
              match
                List.find_opt
                  (fun (ph : Metrics.Trace.phase) -> ph.phase = p)
                  b.phases
              with
              | Some ph -> ph.share
              | None -> 0. ))
          Catalogue.phases
  in
  let queue_mean =
    match wait "cpu.queue" with Some h -> Metrics.Histogram.mean h | None -> 0.
  in
  [
    ("cpu.queue_mean", queue_mean);
    ("cpu.wait_p99_ms", p99_ms "cpu.wait");
    ("listen.wait_p99_ms", p99_ms "listen.wait");
    ("dir.rd_wait_p99_ms", p99_ms "dir.rd_wait");
    ("dir.wr_wait_p99_ms", p99_ms "dir.wr_wait");
    ( "obs.trace_overhead",
      x.host_s
      /. median
           (List.filter_map
              (fun (r : rep) -> if r.instance = 0 then Some r.host_s else None)
              st.reps) );
  ]
  @ shares

let kernels st ~cpu_jobs =
  let trace, cfg = instance_inputs st 0 ~traced:false in
  let inp =
    Kernels.inputs ~cfg ~n_streams:st.w.Workloads.n_streams ~cpu_jobs trace
  in
  let min_time = 0.1 *. Float.min 1. st.scale in
  List.map
    (fun (name, scale, prepare) ->
      let ns, _, _ =
        timed ~track:st.track ("bench.kernel." ^ name) (fun _ ->
            Kernels.time_ops ~min_time (prepare ()))
      in
      (name, ns *. scale))
    (Kernels.all inp)

(* ------------------------------------------------------------------ *)
(* Results *)

(* One value per instance of a simulated metric. *)
let instance_values st name =
  List.filter_map
    (function Some ref -> List.assoc_opt name ref.sim | None -> None)
    (Array.to_list st.refs)

let end_to_end st =
  let det name = stat ~deterministic:true (instance_values st name) in
  (* Allocation is a function of the input alone: one value per instance,
     from its first measured replay. *)
  let first_replays =
    List.filter_map
      (fun i -> List.find_opt (fun (r : rep) -> r.instance = i) (List.rev st.reps))
      (List.init instances Fun.id)
  in
  [
    ( "sim_req_per_s",
      stat (List.map (fun (r : rep) -> float_of_int r.requests /. r.host_s) st.reps) );
    ("setup_s", stat (List.map (fun s -> s.total) st.setups));
    ("peak_heap_mb", stat [ st.heap_mb ]);
    ( "minor_words_per_req",
      stat ~deterministic:true
        (List.map (fun (r : rep) -> r.words /. float_of_int r.requests) first_replays) );
    ("sim_mean_ms", det "sim_mean_ms");
    ("sim_p99_ms", det "sim_p99_ms");
    ("hit_ratio", det "hit_ratio");
    ("meta_msgs_per_req", det "meta_msgs_per_req");
    ("ok_share", stat [ 1. -. (float_of_int st.failed /. float_of_int (max 1 st.attempted)) ]);
  ]

(* Per-layer values: medians over instances (counters) or measured
   replays (host costs), then the traced pass and the kernels. *)
let per_layer st =
  let per_event f = median (List.map (fun (r : rep) -> f r /. float_of_int r.events) st.reps) in
  List.filter_map
    (fun (m : Catalogue.metric) ->
      match instance_values st m.name with
      | [] -> None
      | xs -> Some (m.name, median xs))
    Catalogue.per_layer
  @ [
      ("engine.host_ns_per_event", per_event (fun r -> r.host_s *. 1e9));
      ("engine.minor_words_per_event", per_event (fun r -> r.words));
      ("workload.gen_ms", median (List.map (fun s -> s.generate *. 1000.) st.setups));
      ("cluster.create_ms", median (List.map (fun s -> s.create *. 1000.) st.setups));
    ]
  @ st.layer

type summary = {
  state : state;
  e2e : (string * stat) list;
  layer : (string * float) list;  (** empty unless traced *)
}

let summarise ~traced st =
  { state = st; e2e = end_to_end st; layer = (if traced then per_layer st else []) }

let unit_of metrics name =
  match List.find_opt (fun (m : Catalogue.metric) -> m.name = name) metrics with
  | Some m -> m.unit
  | None -> invalid_arg ("no such metric " ^ name)

let correct summaries = List.for_all (fun s -> s.state.errors = []) summaries

let report_json summaries =
  let stat_json unit (s : stat) =
    J.Obj
      [
        ("unit", J.Str unit);
        ("median", J.Float s.median);
        ("q1", J.Float s.q1);
        ("q3", J.Float s.q3);
        ("n", J.Int s.n);
        ("deterministic", J.Bool s.deterministic);
      ]
  in
  let value_json unit v = J.Obj [ ("unit", J.Str unit); ("value", J.Float v) ] in
  let st = (List.hd summaries).state in
  J.Obj
    [
      ("seed", J.Int st.seed);
      ("scale", J.Float st.scale);
      ("instances", J.Int instances);
      ("correct", J.Bool (correct summaries));
      ( "workloads",
        J.Obj
          (List.map
             (fun s ->
               ( s.state.w.Workloads.name,
                 J.Obj
                   [
                     ( "end_to_end",
                       J.Obj
                         (List.map
                            (fun (n, v) -> (n, stat_json (unit_of Catalogue.end_to_end n) v))
                            s.e2e) );
                     ( "per_layer",
                       J.Obj
                         (List.map
                            (fun (n, v) -> (n, value_json (unit_of Catalogue.per_layer n) v))
                            s.layer) );
                   ] ))
             summaries) );
    ]

let print_tables s =
  let st = s.state in
  Printf.printf "\n== %s (seed %d, %d instances, %d measured replays)\n"
    st.w.Workloads.name st.seed instances (List.length st.reps);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-24s %14.6g %-6s  q1 %-12.6g q3 %-12.6g n %d%s\n" name
        v.median (unit_of Catalogue.end_to_end name) v.q1 v.q3 v.n
        (if v.deterministic then "  (deterministic)" else ""))
    s.e2e;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-30s %14.6g %s\n" name v (unit_of Catalogue.per_layer name))
    s.layer

(* The result line: end-to-end medians, or the per-layer values with
   [--trace 1]; metric names are prefixed by the workload when a run
   covers several. *)
let result_line ~traced summaries =
  let name s m =
    match summaries with [ _ ] -> m | _ -> s.state.w.Workloads.name ^ "/" ^ m
  in
  let entry unit v = J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ] in
  let metrics =
    List.concat_map
      (fun s ->
        List.map
          (fun (m : Catalogue.metric) ->
            let v =
              if traced then List.assoc m.name s.layer
              else (List.assoc m.name s.e2e).median
            in
            (name s m.name, entry m.unit v))
          (if traced then Catalogue.per_layer else Catalogue.end_to_end))
      summaries
  in
  let sum f = List.fold_left (fun acc s -> acc + f s.state) 0 summaries in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct summaries));
         ("attempted", J.Int (sum (fun st -> st.attempted)));
         ("failed", J.Int (sum (fun st -> st.failed)));
         ("metrics", J.Obj metrics);
       ])

(* ------------------------------------------------------------------ *)
(* --check: the smoke test's catalogue and output checks *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let read_json path =
  match J.of_string (read_file path) with
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let str_member k v = match J.member k v with Some (J.Str s) -> Some s | _ -> None

let list_member k v = match J.member k v with Some (J.List l) -> l | _ -> []

let check_benchmark ~path ~trace_out summaries =
  let errors = ref [] in
  let fail msg = errors := msg :: !errors in
  let bench = read_json path in
  let declared key catalogue =
    let entries = list_member key bench in
    let names = List.filter_map (str_member "name") entries in
    List.iter
      (fun (m : Catalogue.metric) ->
        if not (List.mem m.name names) then fail (key ^ ": " ^ m.name ^ " is not declared"))
      catalogue;
    List.iter
      (fun e ->
        match str_member "name" e with
        | None -> fail (key ^ ": entry without a name")
        | Some name -> (
            match List.find_opt (fun (m : Catalogue.metric) -> m.name = name) catalogue with
            | None -> fail (key ^ ": " ^ name ^ " is declared but never emitted")
            | Some m ->
                if str_member "unit" e <> Some m.unit then
                  fail (Printf.sprintf "%s: unit of %s is not %s" key name m.unit);
                if str_member "better" e <> Some (Catalogue.better_to_string m.better)
                then fail (Printf.sprintf "%s: direction of %s differs" key name)))
      entries
  in
  declared "end_to_end" Catalogue.end_to_end;
  declared "per_layer" Catalogue.per_layer;
  let workloads = List.filter_map (str_member "name") (list_member "workloads" bench) in
  if workloads <> List.map (fun (w : Workloads.t) -> w.name) Workloads.all then
    fail "workloads differ from workloads.ml";
  List.iter
    (fun s ->
      let finite kind name v =
        if not (Float.is_finite v) then
          fail (Printf.sprintf "%s: %s %s is not finite" s.state.w.Workloads.name kind name)
      in
      List.iter (fun (name, v) -> finite "end-to-end" name v.median) s.e2e;
      if s.layer <> [] then
        List.iter
          (fun (m : Catalogue.metric) ->
            match List.assoc_opt m.name s.layer with
            | Some v -> finite "per-layer" m.name v
            | None -> fail (s.state.w.Workloads.name ^ ": per-layer " ^ m.name ^ " not emitted"))
          Catalogue.per_layer)
    summaries;
  (match trace_out with
  | Some file -> (
      match J.of_string (read_file file) with
      | Ok v when J.member "traceEvents" v <> None -> ()
      | Ok _ -> fail (file ^ ": no traceEvents")
      | Error e -> fail (file ^ ": " ^ e))
  | None -> ());
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* --compare *)

let compare_reports a_path b_path =
  let bench = read_json "BENCHMARK.json" and a = read_json a_path and b = read_json b_path in
  let num k v = Option.bind (J.member k v) J.to_float_opt in
  let workloads v = match J.member "workloads" v with Some (J.Obj l) -> l | _ -> [] in
  let worse = ref 0 in
  Printf.printf "%-20s %-20s %-6s %14s %27s %14s %27s %8s  %s\n" "workload" "metric"
    "unit" "A median" "A q1..q3" "B median" "B q1..q3" "delta" "verdict";
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname (workloads b) with
      | None -> Printf.printf "%-20s only in %s\n" wname a_path
      | Some wb ->
          List.iter
            (fun entry ->
              let name = Option.value (str_member "name" entry) ~default:"?" in
              let bound = Option.value (num "bound" entry) ~default:0. in
              let higher = str_member "better" entry = Some "higher" in
              let side v = Option.bind (J.member "end_to_end" v) (J.member name) in
              match (side wa, side wb) with
              | Some sa, Some sb ->
                  let get k s = Option.value (num k s) ~default:nan in
                  let ma = get "median" sa and mb = get "median" sb in
                  let spread s = (get "q3" s -. get "q1" s) /. Float.abs (get "median" s) in
                  let deterministic s = J.member "deterministic" s = Some (J.Bool true) in
                  let delta = (mb -. ma) /. Float.abs ma in
                  let loss = if higher then -.delta else delta in
                  let verdict =
                    if ma = mb then "ok"
                    else if
                      (not (deterministic sa && deterministic sb))
                      && (spread sa > bound || spread sb > bound)
                    then "unresolved"
                    else if loss > bound then "worse"
                    else "ok"
                  in
                  if verdict = "worse" then incr worse;
                  Printf.printf
                    "%-20s %-20s %-6s %14.6g %13.6g..%-12.6g %14.6g %13.6g..%-12.6g %+7.2f%%  %s\n"
                    wname name
                    (Option.value (str_member "unit" entry) ~default:"")
                    ma (get "q1" sa) (get "q3" sa) mb (get "q1" sb) (get "q3" sb)
                    (100. *. delta) verdict
              | _ -> Printf.printf "%-20s %-20s missing\n" wname name)
            (list_member "end_to_end" bench))
    (workloads a);
  if !worse > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let names = ref [] and seed = ref 42 and seconds = ref 0. in
  let traced = ref false and scale = ref 1. in
  let json_out = ref None and trace_out = ref None and check = ref None in
  let compare = ref None in
  let usage =
    "swala_bench [--workload NAME]... [--seed N] [--seconds S] \
     [--trace 0|1] [--scale F] [--json-out FILE] [--trace-out FILE] \
     [--check BENCHMARK.json]\n\
     swala_bench --compare A.json B.json"
  in
  let a_file = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> names := !names @ [ s ]),
        "NAME run this workload (repeatable; default: all four)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ( "--trace",
        Arg.Int (fun t -> traced := t <> 0),
        "0|1 1: add the traced pass and kernels, print per-layer metrics" );
      ("--scale", Arg.Set_float scale, "F multiply request counts (default 1)");
      ("--json-out", Arg.String (fun f -> json_out := Some f), "FILE write the report");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE write the host spans as Chrome trace JSON" );
      ( "--check",
        Arg.String (fun f -> check := Some f),
        "FILE check the run against a BENCHMARK.json (smoke test)" );
      ( "--compare",
        Arg.Tuple
          [
            Arg.Set_string a_file;
            Arg.String (fun b -> compare := Some (!a_file, b));
          ],
        "A B compare two --json-out reports" );
    ]
  in
  let bad msg =
    prerr_endline ("swala_bench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> bad ("unexpected " ^ a)) usage
   with
  | Arg.Bad msg -> bad (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  match !compare with
  | Some (a, b) -> (
      try exit (compare_reports a b)
      with Failure msg | Sys_error msg -> bad msg)
  | None ->
      if !scale <= 0. then bad "--scale must be positive";
      let workloads =
        match !names with
        | [] -> Workloads.all
        | names ->
            List.map
              (fun n ->
                match Workloads.find n with
                | Some w -> w
                | None -> bad ("unknown workload " ^ n))
              names
      in
      let states =
        List.mapi
          (fun track w ->
            Metrics.Trace.set_track_name host track w.Workloads.name;
            {
              w;
              track;
              seed = !seed;
              scale = !scale;
              refs = Array.make instances None;
              reps = [];
              setups = [];
              heap_mb = nan;
              heap_digest = "";
              attempted = 0;
              failed = 0;
              errors = [];
              layer = [];
            })
          workloads
      in
      let each f = List.iter f states in
      each measure_heap;
      each warm_up;
      let start = Unix.gettimeofday () in
      let k = ref 0 in
      while !k < instances || Unix.gettimeofday () -. start < !seconds do
        each (fun st ->
            setup st (!k mod instances);
            setup st (!k mod instances);
            measured_rep st !k);
        incr k
      done;
      if !traced then
        each (fun st ->
            let layer = traced_pass st in
            let cpu_jobs = int_of_float (Float.round (List.assoc "cpu.queue_mean" layer)) in
            st.layer <- layer @ kernels st ~cpu_jobs);
      let summaries = List.map (summarise ~traced:!traced) states in
      List.iter print_tables summaries;
      (match !trace_out with
      | Some file ->
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (Metrics.Trace.to_chrome_json host))
      | None -> ());
      (match !json_out with
      | Some file -> Out_channel.with_open_bin file (fun oc -> J.write oc (report_json summaries))
      | None -> ());
      let check_errors =
        match !check with
        | Some path -> (
            try check_benchmark ~path ~trace_out:!trace_out summaries
            with Failure msg | Sys_error msg -> [ msg ])
        | None -> []
      in
      List.iter (fun e -> prerr_endline ("swala_bench: check: " ^ e)) check_errors;
      print_newline ();
      print_endline (result_line ~traced:!traced summaries);
      if check_errors <> [] || not (correct summaries) then exit 1
