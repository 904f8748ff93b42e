(* Every metric the benchmark emits, with its unit and direction. The
   bounds live in BENCHMARK.json at the repository root; the smoke test
   ([--check]) fails when the two disagree on a name, a unit or a
   direction. README.md maps each per-layer metric to the end-to-end
   metric and workload it should move. *)

type better = Higher | Lower

type metric = { name : string; unit : string; better : better }

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let m name unit better = { name; unit; better }

(* Simulated response time is reported as the mean and p99 rather than
   the median: the median sits on the boundary between two request
   classes (files and CGIs, hits and misses), so it jumps between modes
   from one seed to the next; it is kept below as [response.p50_ms].
   [ok_share] is 1 - fail_share, so that the metric is never zero. *)
let end_to_end =
  [
    m "sim_req_per_s" "req/s" Higher;
    m "setup_s" "s" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "minor_words_per_req" "words" Lower;
    m "sim_mean_ms" "ms" Lower;
    m "sim_p99_ms" "ms" Lower;
    m "hit_ratio" "ratio" Higher;
    m "meta_msgs_per_req" "msgs" Lower;
    m "ok_share" "ratio" Higher;
  ]

let phases =
  [
    "handle";
    "dir.lookup";
    "dir.forward";
    "hit.local";
    "fetch.remote";
    "cgi.exec";
    "insert";
    "broadcast";
    "announce";
    "respond";
  ]

let per_layer =
  [
    m "engine.events_per_req" "events" Lower;
    m "engine.host_ns_per_event" "ns" Lower;
    m "engine.minor_words_per_event" "words" Lower;
    m "engine.bare_ns_per_event" "ns" Lower;
    m "cpu.util_mean" "ratio" Higher;
    m "cpu.queue_mean" "jobs" Lower;
    m "cpu.wait_p99_ms" "ms" Lower;
    m "cpu.consume_ns" "ns" Lower;
    m "net.msgs_per_req" "msgs" Lower;
    m "listen.wait_p99_ms" "ms" Lower;
    m "net.send_ns" "ns" Lower;
    m "mailbox.send_recv_ns" "ns" Lower;
    m "fault.crashes" "count" Lower;
    m "net.lost" "count" Lower;
    m "router.retries" "count" Lower;
    m "fetch.timeouts" "count" Lower;
    m "fetch.retries" "count" Lower;
    m "store.lookups_per_req" "count" Lower;
    m "store.local_hit_ratio" "ratio" Higher;
    m "store.inserts_per_req" "count" Lower;
    m "store.evictions_per_req" "count" Lower;
    m "store.lookup_ns" "ns" Lower;
    m "store.insert_ns" "ns" Lower;
    m "dir.rd_locks_per_req" "count" Lower;
    m "dir.wr_locks_per_req" "count" Lower;
    m "dir.false_hits" "count" Lower;
    m "dir.false_misses" "count" Lower;
    m "dir.rd_wait_p99_ms" "ms" Lower;
    m "dir.wr_wait_p99_ms" "ms" Lower;
    m "directory.lookup_ns" "ns" Lower;
    m "directory.insert_ns" "ns" Lower;
    m "shard.fwd_per_req" "count" Lower;
    m "shard.lcache_hit_ratio" "ratio" Higher;
    m "shard.promotions" "count" Lower;
    m "ring.create_ms" "ms" Lower;
    m "ring.acting_owner_ns" "ns" Lower;
    m "shard_table.find_ns" "ns" Lower;
    m "lookup_cache.find_ns" "ns" Lower;
    m "fresh.refreshes" "count" Lower;
    m "fresh.stale_served" "count" Lower;
    m "fresh.staleness_p99_s" "s" Lower;
    m "freshness.ttl_ns" "ns" Lower;
    m "http.parse_ns" "ns" Lower;
    m "cgi.execs_per_req" "count" Lower;
    m "workload.gen_ms" "ms" Lower;
    m "cluster.create_ms" "ms" Lower;
    m "response.p50_ms" "ms" Lower;
  ]
  @ List.map (fun p -> m ("phase." ^ p ^ ".share") "ratio" Lower) phases
  @ [ m "obs.trace_overhead" "ratio" Lower ]
