(* Command-line driver for the Swala simulator.

   swala_sim run       free-form cluster simulation over a chosen workload
   swala_sim gen       generate a workload trace file (logfmt)
   swala_sim list      list the paper experiments exposed by bench/main.exe *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Usage errors: one line on stderr, exit 2 *)

let usage_error cmd msg =
  prerr_endline (Printf.sprintf "swala_sim %s: %s" cmd msg);
  exit 2

let check_positive cmd flag n =
  if n < 1 then usage_error cmd (Printf.sprintf "%s must be >= 1" flag)

(* An output file is written only once the simulation is over, so an
   unwritable path is probed before any work starts: opened for writing
   without truncation, then closed — and removed again if the probe is
   what created it, so a run that fails later leaves no empty file. *)
let check_writable cmd flag path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o666 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path
  | exception Sys_error e ->
      usage_error cmd (Printf.sprintf "%s: cannot write %s" flag e)

(* ------------------------------------------------------------------ *)
(* Shared options *)

let seed_t =
  Arg.(
    value
    & opt int Swala.Config.default.seed
    & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* The converter of an enumerated flag: the names are the ones [name]
   prints, so output and parser cannot disagree. *)
let enum_of name values = Arg.enum (List.map (fun v -> (name v, v)) values)

let streams_t =
  Arg.(
    value & opt int 16
    & info [ "streams" ] ~docv:"N" ~doc:"Closed-loop client streams.")

let requests_t =
  Arg.(
    value & opt int 2000
    & info [ "requests" ] ~docv:"N" ~doc:"Requests to generate.")

(* The workloads [--workload] names, each with the trace it generates. *)
let workloads =
  [
    ( "adl",
      fun ~seed ~requests -> Workload.Synthetic.adl_scaled ~seed ~n:requests );
    ( "coop",
      fun ~seed ~requests ->
        let n_unique = Stdlib.max 1 (requests * 7 / 10) in
        Workload.Synthetic.coop ~seed ~n:requests ~n_unique ~locality:0.08 () );
    ( "webstone",
      fun ~seed ~requests -> Workload.Webstone.file_trace ~seed ~n:requests );
    ( "nullcgi",
      fun ~seed:_ ~requests -> Workload.Webstone.null_cgi_trace ~n:requests );
    ( "unique",
      fun ~seed:_ ~requests ->
        Workload.Synthetic.unique_cacheable ~n:requests ~demand:1.0 );
  ]

let trace_of_workload workload = List.assoc workload workloads

let workload_t =
  Arg.(
    value
    & opt (enum_of Fun.id (List.map fst workloads)) "adl"
    & info [ "workload" ] ~docv:"W"
        ~doc:
          "Workload: adl (digital-library replay), coop (hit-ratio mix), \
           webstone (file mix), nullcgi, or unique (all-miss CGIs).")

let router_t =
  Arg.(
    value
    & opt
        (enum_of Swala.Router.policy_name Swala.Router.all_policies)
        Swala.Router.Per_stream
    & info [ "router" ] ~docv:"R"
        ~doc:
          "Request routing: per-stream, round-robin, least-active or \
           key-affinity.")

let rules_t =
  Arg.(
    value & opt (some file) None
    & info [ "rules" ] ~docv:"FILE"
        ~doc:"Administrator cacheability rules file (see Swala.Rules).")

(* ------------------------------------------------------------------ *)
(* run: the options that set a Config field *)

(* One row per flag that sets a [Config] field: the flag's names, docv,
   doc and converter, the field's value in [Config.default] (the default
   --help shows) and the field's setter. *)
let row names ~docv ~doc converter default set =
  Term.(const set $ Arg.(value & opt converter default & info names ~docv ~doc))

(* The rows folded over [Config.default]: the run's configuration before
   the run-level flags (rules, faults, scenario, tracing, seed) fill it in. *)
let config_t =
  let open Swala.Config in
  let d = default in
  List.fold_left
    (fun cfg row -> Term.(const ( |> ) $ cfg $ row))
    (Term.const d)
    [
      row [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of server nodes." Arg.int
        d.n_nodes (fun n_nodes c -> { c with n_nodes });
      row [ "mode" ] ~docv:"MODE"
        ~doc:"Cache mode: no-cache, standalone or cooperative."
        (enum_of cache_mode_to_string [ Disabled; Standalone; Cooperative ])
        d.cache_mode (fun cache_mode c -> { c with cache_mode });
      row [ "policy" ] ~docv:"P"
        ~doc:
          "Replacement policy: lru, fifo, lfu, size, exec-time, gdsf, random."
        (enum_of Cache.Policy.to_string Cache.Policy.all)
        d.policy (fun policy c -> { c with policy });
      row [ "capacity" ] ~docv:"N" ~doc:"Cache entries per node." Arg.int
        d.cache_capacity (fun cache_capacity c -> { c with cache_capacity });
      row [ "anti-entropy-period" ] ~docv:"SEC"
        ~doc:
          "Run the anti-entropy directory-repair daemon with this period \
           (cooperative mode): each node periodically exchanges directory \
           digests with a random peer and pulls missing or stale entries, \
           so replicas reconverge after partitions heal."
        Arg.(some float) d.anti_entropy_period
        (fun anti_entropy_period c -> { c with anti_entropy_period });
      row [ "fetch-timeout" ] ~docv:"SEC"
        ~doc:
          "Remote-fetch timeout; on expiry the node retries, then marks \
           the owner suspect (drops its directory entries) and falls back \
           to local CGI execution."
        Arg.(some float) d.fetch_timeout
        (fun fetch_timeout c -> { c with fetch_timeout });
      row [ "fetch-retries" ] ~docv:"N"
        ~doc:"Remote-fetch retransmissions before falling back locally."
        Arg.int d.fetch_retries
        (fun fetch_retries c -> { c with fetch_retries });
      row [ "batch-flush-interval" ] ~docv:"SEC"
        ~doc:
          "Nagle-style timer for directory-update batching: each node \
           buffers outbound directory updates and flushes the buffer at \
           least this often (cooperative mode, weak consistency). \
           Requires $(b,--batch-max) > 1 to have any effect."
        Arg.(some float) d.batch_flush_interval
        (fun batch_flush_interval c -> { c with batch_flush_interval });
      row [ "batch-max" ] ~docv:"N"
        ~doc:
          "Flush the directory-update buffer once it holds N updates; \
           same-key updates coalesce to the newest. 1 (default) disables \
           batching; > 1 requires $(b,--batch-flush-interval)."
        Arg.int d.batch_max (fun batch_max c -> { c with batch_max });
      Term.(
        const (fun on c -> if on then { c with dir_hints = true } else c)
        $ Arg.(
            value & flag
            & info [ "dir-hints" ]
                ~doc:
                  "Maintain a key-to-owner hint index in each directory \
                   replica so lookups probe only hinted tables (stale hints \
                   fall back to the full scan)."));
      row [ "dir-mode" ] ~docv:"MODE"
        ~doc:
          "Metadata plane: replicated (every node holds the full \
           directory, updates broadcast — the paper's design) or sharded \
           (each key has one consistent-hash home, updates are unicast \
           to the home and remote lookups are forwarded to it). Sharded \
           mode requires weak consistency and is incompatible with \
           $(b,--batch-max) > 1, $(b,--dir-hints) and \
           $(b,--anti-entropy-period)."
        (enum_of dir_mode_to_string [ Replicated; Sharded ])
        d.dir_mode (fun dir_mode c -> { c with dir_mode });
      row [ "shard-vnodes" ] ~docv:"N"
        ~doc:
          "Virtual nodes per physical node on the consistent-hash ring \
           (sharded mode); more vnodes smooth the key distribution."
        Arg.int d.shard_vnodes (fun shard_vnodes c -> { c with shard_vnodes });
      row [ "shard-lookup-cache" ] ~docv:"N"
        ~doc:
          "Capacity of the per-node positive/negative lookup cache in \
           front of forwarded directory lookups (sharded mode); 0 \
           disables it."
        Arg.int d.shard_lookup_cache
        (fun shard_lookup_cache c -> { c with shard_lookup_cache });
      row [ "shard-pos-ttl" ] ~docv:"SEC"
        ~doc:
          "Seconds a positive lookup-cache entry is trusted (sharded \
           mode) — the false-hit window."
        Arg.float d.shard_pos_ttl
        (fun shard_pos_ttl c -> { c with shard_pos_ttl });
      row [ "shard-neg-ttl" ] ~docv:"SEC"
        ~doc:
          "Seconds a negative lookup-cache entry is trusted (sharded \
           mode) — the false-miss window."
        Arg.float d.shard_neg_ttl
        (fun shard_neg_ttl c -> { c with shard_neg_ttl });
      row [ "hotspot-threshold" ] ~docv:"RATE"
        ~doc:
          "Forwarded-lookup rate (lookups/s per key at the shard home) \
           above which the key's directory entry is replicated to ring \
           successors (sharded mode); 0 disables hotspot replication."
        Arg.float d.hotspot_threshold
        (fun hotspot_threshold c -> { c with hotspot_threshold });
      row [ "hotspot-window" ] ~docv:"SEC"
        ~doc:
          "Sliding-window length of the hotspot rate estimator and \
           period of the demotion sweep."
        Arg.float d.hotspot_window
        (fun hotspot_window c -> { c with hotspot_window });
      row [ "hotspot-replicas" ] ~docv:"K"
        ~doc:
          "Ring successors a promoted hotspot key's directory entry is \
           pushed to."
        Arg.int d.hotspot_replicas
        (fun hotspot_replicas c -> { c with hotspot_replicas });
      row [ "freshness" ] ~docv:"MODE"
        ~doc:
          "TTL policy for cached CGI results: fixed (rule/script TTL, \
           else $(b,--default-ttl) — the classic behaviour) or adaptive \
           (a per-key controller balances staleness risk against \
           recompute cost, giving cheap hot keys short TTLs and \
           expensive stable keys long ones; explicit rule/script TTLs \
           still win)."
        (enum_of Cache.Freshness.mode_to_string
           [ Cache.Freshness.Fixed; Adaptive ])
        d.freshness (fun freshness c -> { c with freshness });
      row [ "default-ttl" ] ~docv:"SEC"
        ~doc:
          "Fallback TTL for cacheable scripts that set none (fixed \
           freshness). Unset (the default) means such entries never \
           expire; under adaptive freshness it is only the staleness \
           anchor for the stale_served counter."
        Arg.(some float) d.default_ttl
        (fun default_ttl c -> { c with default_ttl });
      row [ "refresh-budget" ] ~docv:"R"
        ~doc:
          "Proactive-refresh budget, in re-executions per second per \
           node: a daemon re-runs hot, expensive, near-expiry cache \
           entries off the critical path so clients keep hitting instead \
           of missing at expiry. 0 (default) disables the daemon \
           entirely."
        Arg.float d.refresh_budget
        (fun refresh_budget c -> { c with refresh_budget });
      row [ "telemetry-interval" ] ~docv:"SEC"
        ~doc:
          "Enable the flight recorder: sample cluster and engine probes \
           into bounded timelines every SEC virtual seconds, run the \
           online health monitor, print timeline/incident tables after \
           the run, and add a ['timelines']/['incidents'] section to \
           $(b,--metrics-out). Off by default; a run without it is \
           byte-identical to one built without the plane."
        Arg.(some float) d.telemetry_interval
        (fun telemetry_interval c -> { c with telemetry_interval });
      row [ "slo-target" ] ~docv:"SEC"
        ~doc:
          "Response-time SLO target driving the health monitor's \
           burn-rate detector. Requires $(b,--telemetry-interval)."
        Arg.(some float) d.slo_target
        (fun slo_target c -> { c with slo_target });
    ]

(* Fault-profile options (see Sim.Fault). *)

let drop_rate_t =
  Arg.(
    value & opt float 0.
    & info [ "drop-rate" ] ~docv:"P"
        ~doc:
          "Probability that an inter-node protocol message is dropped \
           (fault injection; requires $(b,--fetch-timeout)).")

let crash_mtbf_t =
  Arg.(
    value & opt (some float) None
    & info [ "crash-mtbf" ] ~docv:"SEC"
        ~doc:
          "Mean time between node failures; enables crash/restart \
           injection (requires $(b,--fetch-timeout)).")

let crash_mttr_t =
  Arg.(
    value & opt float 2.
    & info [ "crash-mttr" ] ~docv:"SEC"
        ~doc:"Mean time to repair a crashed node.")

let fault_horizon_t =
  Arg.(
    value & opt float 600.
    & info [ "fault-horizon" ] ~docv:"SEC"
        ~doc:"Crash schedules are generated within [0, horizon).")

(* A partition flag value looks like 5:25:0,1|2,3 — cut at t=5 s, heal at
   t=25 s, nodes {0,1} split from {2,3}. Unlisted nodes (and clients) form
   one implicit extra group. *)
let partition_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "bad partition %S (expected START:HEAL:ids,ids|ids,ids)" s))
    in
    match String.split_on_char ':' s with
    | [ cut; heal; groups ] -> (
        match (float_of_string_opt cut, float_of_string_opt heal) with
        | Some cut_at, Some heal_at -> (
            try
              let groups =
                List.map
                  (fun g ->
                    match String.split_on_char ',' (String.trim g) with
                    | [] | [ "" ] -> raise Exit
                    | ids -> List.map (fun id -> int_of_string (String.trim id)) ids)
                  (String.split_on_char '|' groups)
              in
              if List.length groups < 2 then fail ()
              else
                Ok
                  {
                    Sim.Fault.pname = s;
                    groups;
                    cut_at;
                    heal_at;
                  }
            with Exit | Failure _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let print ppf (p : Sim.Fault.partition) =
    Format.pp_print_string ppf p.Sim.Fault.pname
  in
  Arg.conv (parse, print)

let partitions_t =
  Arg.(
    value
    & opt_all partition_conv []
    & info [ "partition" ] ~docv:"SPEC"
        ~doc:
          "Time-varying network partition, as START:HEAL:ids,ids|ids,ids \
           (e.g. 5:25:0,1|2,3 splits nodes {0,1} from {2,3} between t=5 s \
           and t=25 s). Repeatable; overlapping partitions compose. \
           Requires $(b,--fetch-timeout).")

let trace_file_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a causal trace of the run and write it as Chrome \
           trace-event JSON (load in Perfetto or chrome://tracing): one \
           track per node plus a clients track, one span tree per \
           request, instants for faults. Off by default; without it the \
           hot path carries no tracing work.")

let trace_breakdown_t =
  Arg.(
    value & flag
    & info [ "trace-breakdown" ]
        ~doc:
          "Trace the run and print a per-phase latency-breakdown table \
           (self time by span name) plus lock/mailbox/CPU contention \
           histograms.")

let metrics_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's counters, response-time summaries and wait \
           histograms as JSON to FILE. With $(b,--seeds) N > 1, one file \
           per seed is written as FILE.SEED.")

(* Flight-recorder options (see docs/OBSERVABILITY.md). *)

let telemetry_csv_t =
  Arg.(
    value & opt (some string) None
    & info [ "telemetry-csv" ] ~docv:"PREFIX"
        ~doc:
          "Write the sampled timelines as CSV: PREFIX.cluster.csv for \
           cluster-wide probes plus one PREFIX.nodeN.csv per node. \
           Requires $(b,--telemetry-interval).")

let incidents_out_t =
  Arg.(
    value & opt (some string) None
    & info [ "incidents-out" ] ~docv:"FILE"
        ~doc:
          "Write the health monitor's incident log as plain text, one \
           line per incident. Requires $(b,--telemetry-interval).")

let seeds_t =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:
          "Replay $(docv) consecutive seeds starting at $(b,--seed), \
           printing one summary line per seed in seed order. Each seed is \
           an independent deterministic run; combine with $(b,--jobs) to \
           spread the sweep over domains.")

let jobs_t =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"M"
        ~doc:
          "Domains to run a $(b,--seeds) sweep on (0 = all cores). \
           Results are merged in seed order, so output is byte-identical \
           for every value of $(docv).")

(* Time-varying scenario options (see Workload.Scenario). *)

let scenario_t =
  Arg.(
    value & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          "Scenario preset: flash (crowd over the middle of the run), \
           diurnal (one sinusoidal cycle), geo (metro/regional/far client \
           tiers), churn (rolling node leave/rejoin; requires \
           $(b,--fetch-timeout)) or mixed (all four). Explicit \
           $(b,--flash-crowd)/$(b,--diurnal)/$(b,--geo-tiers)/\
           $(b,--churn-rate) flags override the preset's choices.")

let scenario_duration_t =
  Arg.(
    value & opt float 60.
    & info [ "scenario-duration" ] ~docv:"SEC"
        ~doc:
          "Virtual-time horizon the scenario phases tile; diurnal release \
           times and preset flash-crowd windows are laid out over it.")

(* AT:DUR:FRACTION:KEYS with an optional trailing :DECAY (defaults to DUR). *)
let flash_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "bad flash crowd %S (expected AT:DUR:FRACTION:KEYS[:DECAY])" s))
    in
    match String.split_on_char ':' s with
    | [ at; dur; frac; keys ] | [ at; dur; frac; keys; _ ] as fields -> (
        let decay =
          match fields with [ _; _; _; _; d ] -> float_of_string_opt d | _ -> None
        in
        match
          ( float_of_string_opt at,
            float_of_string_opt dur,
            float_of_string_opt frac,
            int_of_string_opt keys )
        with
        | Some at, Some duration, Some fraction, Some keys -> (
            try
              Ok
                (Workload.Scenario.flash_crowd ~at ~duration ?decay ~fraction
                   ~keys ())
            with Invalid_argument m -> Error (`Msg m))
        | _ -> fail ())
    | _ -> fail ()
  in
  let print ppf (f : Workload.Scenario.flash_crowd) =
    Format.fprintf ppf "%g:%g:%g:%d:%g" f.Workload.Scenario.fc_at
      f.Workload.Scenario.fc_duration f.Workload.Scenario.fc_fraction
      f.Workload.Scenario.fc_keys f.Workload.Scenario.fc_decay
  in
  Arg.conv (parse, print)

let flash_crowd_t =
  Arg.(
    value
    & opt (some flash_conv) None
    & info [ "flash-crowd" ] ~docv:"SPEC"
        ~doc:
          "Flash crowd, as AT:DUR:FRACTION:KEYS[:DECAY] (e.g. \
           10:20:0.8:8 re-points 80% of CGI traffic onto an 8-key Zipf \
           head between t=10 s and t=30 s, then decays linearly back to \
           baseline over another 20 s).")

(* PERIOD:TROUGH sinusoidal envelope. *)
let diurnal_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ period; trough ] -> (
        match (float_of_string_opt period, float_of_string_opt trough) with
        | Some period, Some trough ->
            Ok (Workload.Scenario.Sinusoid { period; trough })
        | _ -> Error (`Msg (Printf.sprintf "bad diurnal %S" s)))
    | _ ->
        Error
          (`Msg (Printf.sprintf "bad diurnal %S (expected PERIOD:TROUGH)" s))
  in
  let print ppf (Workload.Scenario.Sinusoid { period; trough }) =
    Format.fprintf ppf "%g:%g" period trough
  in
  Arg.conv (parse, print)

let diurnal_t =
  Arg.(
    value
    & opt (some diurnal_conv) None
    & info [ "diurnal" ] ~docv:"SPEC"
        ~doc:
          "Sinusoidal arrival-rate envelope, as PERIOD:TROUGH (e.g. 60:0.2 \
           cycles once per 60 s between full rate mid-period and 20% rate \
           at the period edges). Release times are the envelope's \
           quantiles, so the trace's request count is preserved exactly.")

(* NAME:RTT:WEIGHT,NAME:RTT:WEIGHT geo tiers. *)
let geo_conv =
  let parse s =
    try
      let tiers =
        List.map
          (fun spec ->
            match String.split_on_char ':' (String.trim spec) with
            | [ name; rtt; weight ] -> (
                match (float_of_string_opt rtt, float_of_string_opt weight) with
                | Some rtt, Some weight ->
                    Workload.Scenario.tier ~name:(String.trim name) ~rtt ~weight
                | _ -> raise Exit)
            | _ -> raise Exit)
          (String.split_on_char ',' s)
      in
      if tiers = [] then raise Exit else Ok tiers
    with Exit ->
      Error
        (`Msg
           (Printf.sprintf
              "bad geo tiers %S (expected NAME:RTT:WEIGHT,NAME:RTT:WEIGHT,...)"
              s))
  in
  let print ppf tiers =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map
            (fun (t : Workload.Scenario.tier) ->
              Printf.sprintf "%s:%g:%g" t.Workload.Scenario.tier_name
                t.Workload.Scenario.rtt t.Workload.Scenario.weight)
            tiers))
  in
  Arg.conv (parse, print)

let geo_tiers_t =
  Arg.(
    value
    & opt (some geo_conv) None
    & info [ "geo-tiers" ] ~docv:"SPEC"
        ~doc:
          "Geo-tiered client classes, as NAME:RTT:WEIGHT,... (e.g. \
           metro:0.002:6,regional:0.03:3,far:0.12:1). Client streams are \
           cut into contiguous runs proportional to the weights; each \
           tier's links gain RTT/2 one-way latency, and responses are \
           reported per tier.")

let churn_rate_t =
  Arg.(
    value & opt (some float) None
    & info [ "churn-rate" ] ~docv:"RATE"
        ~doc:
          "Rolling membership churn: node leave events per second, dealt \
           round-robin over the cluster (requires $(b,--fetch-timeout)). \
           Composes with $(b,--crash-mtbf) and $(b,--partition).")

let churn_downtime_t =
  Arg.(
    value & opt float 2.
    & info [ "churn-downtime" ] ~docv:"SEC"
        ~doc:"(Mean) downtime of each churn leave.")

let churn_fixed_t =
  Arg.(
    value & flag
    & info [ "churn-fixed" ]
        ~doc:
          "Make churn strictly periodic (fixed gaps and downtimes) \
           instead of Poisson.")

(* ------------------------------------------------------------------ *)
(* run *)

(* Resolve a --scenario preset plus explicit overlay flags into the
   scenario overlays and churn spec (explicit flags win over the preset). *)
let resolve_scenario ~preset ~duration ~flash ~diurnal ~geo ~churn_rate
    ~churn_downtime ~churn_fixed =
  let module S = Workload.Scenario in
  (* The presets' overlays; [mixed] stacks all four. *)
  let crowd =
    Some (S.flash_crowd ~at:(duration /. 4.) ~duration:(duration /. 4.) ())
  in
  let wave = Some (S.Sinusoid { period = duration; trough = 0.2 }) in
  let tiers =
    Some
      [
        S.tier ~name:"metro" ~rtt:0.002 ~weight:6.;
        S.tier ~name:"regional" ~rtt:0.03 ~weight:3.;
        S.tier ~name:"far" ~rtt:0.12 ~weight:1.;
      ]
  in
  let leave_rate = Some 0.2 in
  let preset_flash, preset_diurnal, preset_geo, preset_churn =
    match preset with
    | None -> (None, None, None, None)
    | Some "flash" -> (crowd, None, None, None)
    | Some "diurnal" -> (None, wave, None, None)
    | Some "geo" -> (None, None, tiers, None)
    | Some "churn" -> (None, None, None, leave_rate)
    | Some "mixed" -> (crowd, wave, tiers, leave_rate)
    | Some other ->
        prerr_endline
          (Printf.sprintf
             "unknown scenario %S (expected flash, diurnal, geo, churn or \
              mixed)"
             other);
        exit 2
  in
  let first a b = match a with Some _ -> a | None -> b in
  let flash = first flash preset_flash in
  let diurnal = first diurnal preset_diurnal in
  let geo = first geo preset_geo in
  let churn_rate = first churn_rate preset_churn in
  let scenario =
    if flash = None && diurnal = None && geo = None then None
    else Some (S.make ~duration ?flash ?diurnal ?tiers:geo ())
  in
  let churn =
    Option.map
      (fun rate ->
        Sim.Fault.churn ~rate ~downtime:churn_downtime
          ~poisson:(not churn_fixed) ())
      churn_rate
  in
  (scenario, churn)

(* --seeds N: replay seeds seed..seed+N-1, one fresh engine per run,
   spread over --jobs domains. Workers return fully formatted report
   lines (and metrics JSON payloads) and the main domain prints/writes
   them in seed order, so stdout and any --metrics-out files are
   byte-identical whatever the parallelism. *)
let run_multi (cfg : Swala.Config.t) ~seeds ~jobs ~seed ~workload ~requests
    ~streams ~router ~metrics_out =
  let jobs = if jobs = 0 then Sim.Sweep.default_jobs () else jobs in
  Printf.printf
    "workload=%s requests=%d nodes=%d mode=%s policy=%s capacity=%d \
     streams=%d seeds=%d..%d\n"
    workload requests cfg.n_nodes
    (Swala.Config.cache_mode_to_string cfg.cache_mode)
    (Cache.Policy.to_string cfg.policy)
    cfg.cache_capacity streams seed (seed + seeds - 1);
  let seed_list = Array.init seeds (fun i -> seed + i) in
  let results =
    Sim.Sweep.map ~jobs
      (fun sd ->
        let trace = trace_of_workload workload ~seed:sd ~requests in
        let r =
          Swala.Cluster_runner.run { cfg with seed = sd } ~trace
            ~n_streams:streams ~router ()
        in
        let fmt = function
          | None -> "-"
          | Some v -> Printf.sprintf "%.4f" v
        in
        let resp = r.Swala.Cluster_runner.response in
        let line =
          Printf.sprintf
            "seed %-5d makespan %8.2f s  mean %.4f s  p50/p95 %s/%s s  \
             hits %d (%.1f%% of CGI)  events %d\n"
            sd r.Swala.Cluster_runner.duration
            (Swala.Cluster_runner.mean_response r)
            (fmt (Metrics.Sample.median_opt resp))
            (fmt (Metrics.Sample.quantile_opt resp 0.95))
            r.Swala.Cluster_runner.hits
            (100. *. r.Swala.Cluster_runner.hit_ratio)
            r.Swala.Cluster_runner.n_events
        in
        let json =
          match metrics_out with
          | None -> None
          | Some _ -> Some (Swala.Cluster_runner.result_to_json r)
        in
        (line, json))
      seed_list
  in
  Array.iteri
    (fun i (line, json) ->
      print_string line;
      match (metrics_out, json) with
      | Some path, Some j ->
          let path = Printf.sprintf "%s.%d" path seed_list.(i) in
          let oc = open_out path in
          output_string oc j;
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote metrics JSON to %s\n" path
      | _ -> ())
    results

(* The pid a probe's counter track lands on in the Chrome-trace export:
   per-node probes (names with an [n<i>.] prefix) on that node's track,
   cluster-wide probes on a dedicated "cluster" track after the clients
   track. *)
let probe_node_id name =
  if String.length name > 1 && name.[0] = 'n' then
    match String.index_opt name '.' with
    | Some dot when dot > 1 -> int_of_string_opt (String.sub name 1 (dot - 1))
    | _ -> None
  else None

let run_cmd_impl (cfg : Swala.Config.t) seed streams requests workload router
    rules_file drop_rate crash_mtbf crash_mttr fault_horizon partitions
    scenario_name scenario_duration flash_crowd diurnal geo_tiers churn_rate
    churn_downtime churn_fixed trace_file trace_breakdown metrics_out
    telemetry_csv incidents_out seeds jobs =
  check_positive "run" "--seeds" seeds;
  check_positive "run" "--streams" streams;
  check_positive "run" "--requests" requests;
  (* Checked whatever --seeds is, although only a sweep uses it. *)
  if jobs < 0 then usage_error "run" "--jobs must be >= 0";
  if seeds > 1 && (trace_file <> None || trace_breakdown) then
    usage_error "run"
      "--trace/--trace-breakdown are single-run reports; not \
       available with --seeds > 1";
  if seeds > 1 && (telemetry_csv <> None || incidents_out <> None) then
    usage_error "run"
      "--telemetry-csv/--incidents-out are single-run reports; not \
       available with --seeds > 1";
  if
    cfg.telemetry_interval = None
    && (telemetry_csv <> None || incidents_out <> None)
  then
    usage_error "run"
      "--telemetry-csv/--incidents-out require --telemetry-interval";
  let rules =
    match rules_file with
    | None -> Swala.Rules.empty
    | Some path -> (
        match Swala.Rules.load path with
        | Ok r -> r
        | Error e ->
            Printf.eprintf "%s: %s\n" path e;
            exit 2)
  in
  let scenario, churn =
    try
      resolve_scenario ~preset:scenario_name ~duration:scenario_duration
        ~flash:flash_crowd ~diurnal ~geo:geo_tiers ~churn_rate
        ~churn_downtime ~churn_fixed
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  (* The fault-shaping flags are checked even when no fault source uses
     them, in the order and words of Sim.Fault.validate, so a bad value
     fails the same way with or without a source. *)
  List.iter
    (fun (ok, msg) ->
      if not ok then begin
        prerr_endline ("Fault: " ^ msg);
        exit 2
      end)
    [
      (crash_mttr > 0., "node mttr must be positive");
      (churn_downtime > 0., "churn downtime must be positive");
      (fault_horizon > 0., "horizon must be positive");
      (Float.is_finite fault_horizon, "horizon must be finite");
    ];
  let fault =
    if
      drop_rate = 0. && crash_mtbf = None && partitions = [] && churn = None
    then None
    else
      Some
        (Sim.Fault.make ~drop:drop_rate
           ?node:
             (Option.map
                (fun mtbf -> { Sim.Fault.mtbf; mttr = crash_mttr })
                crash_mtbf)
           ~partitions ?churn ~horizon:fault_horizon ())
  in
  let cfg =
    {
      cfg with
      rules;
      fault;
      scenario;
      trace = trace_file <> None || trace_breakdown;
      seed;
    }
  in
  let nodes = cfg.n_nodes in
  (* Validation otherwise happens inside the run; surface bad flag
     combinations (e.g. faults without --fetch-timeout) as a clean
     error instead of a backtrace. *)
  (try Swala.Config.validate cfg
   with Invalid_argument msg ->
     prerr_endline msg;
     exit 2);
  let check_writable = check_writable "run" in
  Option.iter (check_writable "--trace") trace_file;
  Option.iter
    (fun path ->
      if seeds = 1 then check_writable "--metrics-out" path
      else
        for sd = seed to seed + seeds - 1 do
          check_writable "--metrics-out" (Printf.sprintf "%s.%d" path sd)
        done)
    metrics_out;
  Option.iter
    (fun prefix ->
      check_writable "--telemetry-csv" (prefix ^ ".cluster.csv");
      for i = 0 to nodes - 1 do
        check_writable "--telemetry-csv" (Printf.sprintf "%s.node%d.csv" prefix i)
      done)
    telemetry_csv;
  Option.iter (check_writable "--incidents-out") incidents_out;
  if seeds > 1 then
    run_multi cfg ~seeds ~jobs ~seed ~workload ~requests ~streams ~router
      ~metrics_out
  else
    let trace = trace_of_workload workload ~seed ~requests in
    let result =
      Swala.Cluster_runner.run cfg ~trace ~n_streams:streams ~router ()
    in
    let summary = Workload.Analyzer.summarize trace in
    Printf.printf
      "workload=%s requests=%d (%.1f%% CGI) nodes=%d mode=%s policy=%s \
       capacity=%d streams=%d seed=%d\n"
      workload summary.Workload.Analyzer.n_total
      (100. *. summary.Workload.Analyzer.cgi_fraction)
      nodes
      (Swala.Config.cache_mode_to_string cfg.cache_mode)
      (Cache.Policy.to_string cfg.policy)
      cfg.cache_capacity streams seed;
    (match fault with
    | None -> ()
    | Some _ ->
        Printf.printf
          "fault profile             drop=%.3f mtbf=%s mttr=%.1fs \
           horizon=%.0fs (messages lost: %d)\n"
          drop_rate
          (match crash_mtbf with
          | None -> "-"
          | Some m -> Printf.sprintf "%.1fs" m)
          crash_mttr fault_horizon result.Swala.Cluster_runner.net_lost;
        List.iter
          (fun (p : Sim.Fault.partition) ->
            Printf.printf "  partition               %s\n" p.Sim.Fault.pname)
          partitions);
    (match churn with
    | None -> ()
    | Some (c : Sim.Fault.churn) ->
        Printf.printf
          "rolling churn             %.3g leaves/s, downtime %.1fs (%s)\n"
          c.Sim.Fault.churn_rate c.Sim.Fault.churn_downtime
          (if c.Sim.Fault.churn_poisson then "poisson" else "fixed-period"));
    (match scenario with
    | None -> ()
    | Some sc ->
        Printf.printf "scenario phases           %s\n"
          (String.concat ", "
             (List.map
                (fun (name, a, b) -> Printf.sprintf "%s[%g,%g)" name a b)
                (Workload.Scenario.phases sc))));
    Printf.printf "simulated makespan        %.2f s\n"
      result.Swala.Cluster_runner.duration;
    Printf.printf "mean response time        %.4f s\n"
      (Swala.Cluster_runner.mean_response result);
    (let r = result.Swala.Cluster_runner.response in
     let fmt = function
       | None -> "-"
       | Some v -> Printf.sprintf "%.4f" v
     in
     Printf.printf "median / p95 / max        %s / %s / %s s\n"
       (fmt (Metrics.Sample.median_opt r))
       (fmt (Metrics.Sample.quantile_opt r 0.95))
       (fmt (Metrics.Sample.max_opt r)));
    Printf.printf "cache hits (local+remote) %d (hit ratio %.1f%% of CGI)\n"
      result.Swala.Cluster_runner.hits
      (100. *. result.Swala.Cluster_runner.hit_ratio);
    (* Freshness summary only when the plane is in play, keeping default
       runs' stdout identical to older builds. *)
    (if result.Swala.Cluster_runner.freshness_active then
       let st = result.Swala.Cluster_runner.staleness in
       let fmt = function
         | None -> "-"
         | Some v -> Printf.sprintf "%.3f" v
       in
       Printf.printf
         "freshness                 %s (hit age mean %.3f / p99 %s s over \
          %d hits)\n"
         result.Swala.Cluster_runner.freshness_mode
         (Metrics.Histogram.mean st)
         (fmt (Metrics.Histogram.quantile_opt st 0.99))
         (Metrics.Histogram.count st));
    Printf.printf "per-node CPU utilisation  %s\n"
      (String.concat " "
         (Array.to_list
            (Array.map
               (fun u -> Printf.sprintf "%.0f%%" (100. *. u))
               result.Swala.Cluster_runner.utilisation)));
    print_newline ();
    print_string "counters:\n";
    let c = result.Swala.Cluster_runner.counters in
    List.iter
      (fun name -> Printf.printf "  %-24s %d\n" name (Metrics.Counter.get c name))
      (Metrics.Counter.names c);
    (* Flight-recorder report: only when telemetry was on, keeping
       telemetry-off stdout identical to older builds. It is rendered
       from the run's own metrics JSON, as `swala_sim report` does. *)
    (if result.Swala.Cluster_runner.timelines <> None then
       Option.iter
         (fun text ->
           print_newline ();
           print_string text)
         (Swala.Telemetry_report.render_json_report
            (Result.get_ok
               (Metrics.Json.of_string
                  (Swala.Cluster_runner.result_to_json result)))));
    (if trace_breakdown then
       match result.Swala.Cluster_runner.tracer with
       | None -> ()
       | Some tr ->
           print_newline ();
           Metrics.Table.print (Swala.Trace_report.breakdown_table tr ~root:"request");
           Metrics.Table.print
             (Swala.Trace_report.histogram_table
                result.Swala.Cluster_runner.wait_histograms));
    (match (trace_file, result.Swala.Cluster_runner.tracer) with
    | Some path, Some tr ->
        (* With telemetry on, the sampled timelines ride along as
           Perfetto counter tracks: per-node probes on their node's
           track, cluster-wide probes on a dedicated track. *)
        let counters =
          match result.Swala.Cluster_runner.timelines with
          | None -> []
          | Some reg ->
              Metrics.Trace.set_track_name tr (nodes + 1) "cluster";
              List.map
                (fun (s : Metrics.Registry.series) ->
                  let pid =
                    match probe_node_id s.Metrics.Registry.name with
                    | Some i when i >= 0 && i < nodes -> i
                    | _ -> nodes + 1
                  in
                  (pid, s.Metrics.Registry.name, s.Metrics.Registry.points))
                (Metrics.Registry.series reg)
        in
        let oc = open_out path in
        output_string oc (Metrics.Trace.to_chrome_json ~counters tr);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %d spans to %s (Perfetto / chrome://tracing)\n"
          (Metrics.Trace.n_spans tr) path
    | _ -> ());
    (match metrics_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Swala.Cluster_runner.result_to_json result);
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote metrics JSON to %s\n" path);
    (match (telemetry_csv, result.Swala.Cluster_runner.timelines) with
    | Some prefix, Some reg ->
        let write path keep =
          let oc = open_out path in
          output_string oc (Metrics.Registry.to_csv ~keep reg);
          close_out oc
        in
        write
          (prefix ^ ".cluster.csv")
          (fun name -> probe_node_id name = None);
        for i = 0 to nodes - 1 do
          write
            (Printf.sprintf "%s.node%d.csv" prefix i)
            (fun name -> probe_node_id name = Some i)
        done;
        Printf.printf "wrote telemetry CSVs to %s.{cluster,node*}.csv\n"
          prefix
    | _ -> ());
    match (incidents_out, result.Swala.Cluster_runner.health) with
    | Some path, Some h ->
        let oc = open_out path in
        let ppf = Format.formatter_of_out_channel oc in
        List.iter
          (fun i -> Format.fprintf ppf "%a@." Metrics.Health.pp_incident i)
          (Metrics.Health.incidents h);
        Format.pp_print_flush ppf ();
        close_out oc;
        Printf.printf "wrote %d incident(s) to %s\n"
          (Metrics.Health.n_incidents h)
          path
    | _ -> ()

let run_cmd =
  let doc = "Run a cluster simulation and report response times and counters." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run_cmd_impl $ config_t $ seed_t $ streams_t $ requests_t
      $ workload_t $ router_t $ rules_t $ drop_rate_t $ crash_mtbf_t
      $ crash_mttr_t $ fault_horizon_t $ partitions_t $ scenario_t
      $ scenario_duration_t $ flash_crowd_t $ diurnal_t $ geo_tiers_t
      $ churn_rate_t $ churn_downtime_t $ churn_fixed_t $ trace_file_t
      $ trace_breakdown_t $ metrics_out_t $ telemetry_csv_t $ incidents_out_t
      $ seeds_t $ jobs_t)

(* ------------------------------------------------------------------ *)
(* gen *)

let output_t =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")

let gen_cmd_impl seed requests workload output =
  check_positive "gen" "--requests" requests;
  Option.iter (check_writable "gen" "--output") output;
  let trace = trace_of_workload workload ~seed ~requests in
  match output with
  | None -> print_string (Workload.Logfmt.to_string trace)
  | Some path ->
      let oc = open_out path in
      Workload.Logfmt.write oc trace;
      close_out oc;
      Printf.printf "wrote %d requests to %s\n" (List.length trace) path

let gen_cmd =
  let doc = "Generate a workload trace in logfmt (see bin/loganalyze)." in
  Cmd.v
    (Cmd.info "gen" ~doc)
    Term.(const gen_cmd_impl $ seed_t $ requests_t $ workload_t $ output_t)

(* ------------------------------------------------------------------ *)
(* report *)

let report_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"METRICS_JSON"
        ~doc:"A metrics JSON file written by $(b,run --metrics-out).")

let report_cmd_impl file =
  match Metrics.Json.of_file file with
  | Error e ->
      prerr_endline e;
      exit 2
  | Ok json -> (
      match Swala.Telemetry_report.render_json_report json with
      | Some text -> print_string text
      | None ->
          Printf.eprintf
            "%s: no timelines/incidents sections (was the run made with \
             --telemetry-interval?)\n"
            file;
          exit 1)

let report_cmd =
  let doc =
    "Render a metrics JSON file's flight-recorder sections (probe \
     timelines with sparklines, health incidents) as plain-text tables."
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report_cmd_impl $ report_file_t)

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let doc = "List the paper-experiment targets (run them via bench/main.exe)." in
  let list () =
    print_endline
      "Paper experiments (run with `dune exec bench/main.exe -- <target>`):";
    List.iter
      (fun (e : Swala.Experiments.target) ->
        Printf.printf "  %-20s  %s\n" e.name e.doc)
      Swala.Experiments.targets
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list $ const ())

let () =
  let doc = "Swala cooperative-caching web-server simulator (HPDC 1998)." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "swala_sim" ~doc)
          [ run_cmd; gen_cmd; report_cmd; list_cmd ]))
