(** Offline access-log analysis (paper §3, Table 1).

    Given a trace with per-request service times, compute — for each
    execution-time threshold — how much total service time a CGI result
    cache of unbounded size would have saved by serving every repeated
    request from cache instead of re-executing it. *)

type row = {
  threshold : float;  (** include CGI requests with service time >= this *)
  n_long : int;  (** number of qualifying requests *)
  total_repeats : int;  (** requests that repeat an earlier qualifying one *)
  unique_repeats : int;  (** cache entries needed to capture all repeats *)
  time_saved : float;  (** execution seconds avoided, assuming free hits *)
  saved_fraction : float;  (** [time_saved] over whole-trace service time *)
}

(** [table1 trace ~thresholds] computes one row per threshold. Only CGI
    requests are candidates (files are never cached, §4.1). *)
val table1 : Trace.t -> thresholds:float list -> row list

(** Aggregate statistics of a trace, mirroring the figures quoted in §3. *)
type summary = {
  n_total : int;
  n_cgi : int;
  cgi_fraction : float;
  total_service : float;
  mean_response : float;
  mean_file_time : float;
  mean_cgi_time : float;
  cgi_time_fraction : float;  (** share of service time spent in CGI *)
  longest : float;
}

val summarize : Trace.t -> summary

(** [upper_bound_hits trace] is the best possible number of cache hits for
    an infinite cache: total CGI requests minus distinct CGI keys (paper
    §5.3's "upper bound"). *)
val upper_bound_hits : Trace.t -> int
