(** Synthetic workload generators.

    {2 ADL-like traces}

    The Alexandria Digital Library access log the paper analyses is not
    available, but the paper publishes its aggregates: 69,337 requests of
    which 41.3 % are CGI; mean service time 0.03 s for files and 1.6 s for
    CGI; CGI is 97 % of total service time; and repetition is concentrated —
    at the 1 s threshold, roughly 190 distinct requests account for ~2,900
    repeat executions worth ~29 % of total service time (their Table 1).

    {!adl} reproduces that structure with a two-population CGI model:
    a small {e hot} set of queries drawn repeatedly (Zipf-skewed, longer
    mean execution), and a {e cold} stream of one-off queries. Files are
    drawn Zipf-fashion from a modest document population.

    {2 Exact-cardinality cooperative-caching traces}

    The hit-ratio experiments (paper Tables 5 and 6) issue exactly 1,600
    requests of which exactly 1,122 are unique. {!coop} builds traces with
    exact request/unique counts, an adjustable hot-set size, Zipf repeat
    skew, and a temporal-locality knob that clusters repeats of a key near
    each other in trace order (an LRU-stack-like reference stream). *)

type adl_params = {
  n_requests : int;
  cgi_fraction : float;  (** share of requests that are CGI *)
  n_hot : int;  (** hot CGI query population *)
  p_hot : float;  (** probability a CGI request is a hot draw *)
  hot_zipf_s : float;  (** popularity skew inside the hot set *)
  hot_mean : float;  (** mean exec demand of hot queries, seconds *)
  hot_cv : float;
  cold_mean : float;  (** mean exec demand of one-off queries *)
  cold_cv : float;
  n_files : int;  (** static document population *)
  file_zipf_s : float;
  cgi_out_bytes : int;  (** mean CGI output size *)
}

(** Parameters calibrated against the paper's published aggregates. *)
val default_adl : adl_params

(** [adl ~seed ?params ()] generates the trace. *)
val adl : seed:int -> ?params:adl_params -> unit -> Trace.t

(** [adl_scaled ~seed ~n] is {!adl} with [n_requests = n] and populations
    scaled proportionally — used for the multi-node replay (Figure 4),
    where replaying all 69k requests would be unnecessarily slow. *)
val adl_scaled : seed:int -> n:int -> Trace.t

(** [coop ~seed ~n ~n_unique ()] builds a CGI-only trace with exactly [n]
    requests over exactly [n_unique] distinct queries.

    - [n_hot] distinct queries (default 120, or [n_unique] if fewer)
      receive all the repeats, distributed by a Zipf law with skew
      [zipf_s] (default 0.8);
    - every request costs [demand] dedicated-CPU seconds (default 1.0) and
      produces [out_bytes] of output (default 4096);
    - [locality] in [(0, 1]] clusters repeats: it is the mean spacing
      between successive references to the same key, as a fraction of the
      trace (default 1.0 = no clustering beyond uniform shuffling).

    Raises [Invalid_argument] if [n_unique > n] or [n_hot > n_unique]. *)
val coop :
  seed:int ->
  n:int ->
  n_unique:int ->
  ?n_hot:int ->
  ?zipf_s:float ->
  ?demand:float ->
  ?out_bytes:int ->
  ?locality:float ->
  unit ->
  Trace.t

(** [unique_cacheable ~n ~demand] is [n] distinct 1-per-key CGI requests —
    the all-miss insertion workload of the paper's Table 3. *)
val unique_cacheable : n:int -> demand:float -> Trace.t

(** [uncacheable ~n ~demand] is [n] requests to a script marked
    non-cacheable — the paper's Table 4 workload ("180 uncacheable
    requests, each about one second"). *)
val uncacheable : n:int -> demand:float -> Trace.t

(** [demand_arg d] is the ["xd"] argument a generated item carries for
    demand [d]: [Printf.sprintf "%.9g" d], byte for byte, formatted
    without interpreting a format string. *)
val demand_arg : float -> string

(** [register_scripts registry] registers the CGI programs the generated
    traces reference (["/cgi-bin/query"], ["/cgi-bin/unique"], the null
    CGI). Traces carry their demands in the ["xd"] replay parameter, so the
    scripts use [Cost.From_query]. *)
val register_scripts : Cgi.Registry.t -> unit

(** [register_trace_files registry trace] declares every static file a
    trace references, with its size. Call before replaying. *)
val register_trace_files : Cgi.Registry.t -> Trace.t -> unit
