(** WebStone-like workload generation (paper §5.1).

    The paper's file-fetch experiment requests five fixed documents with the
    standard WebStone mix: 500 B at 35 %, 5 KB at 50 %, 50 KB at 14 %,
    500 KB at 0.9 % and 1 MB at 0.1 %. The null-CGI experiment drives a CGI
    that does no work and emits under a hundred bytes. *)

(** The (path, bytes, weight) mix. *)
val file_mix : (string * int * float) list

(** [register_files registry] declares the five documents. *)
val register_files : Cgi.Registry.t -> unit

(** [file_trace ~seed ~n] generates [n] file fetches. *)
val file_trace : seed:int -> n:int -> Trace.t

(** [null_cgi_trace ~n] is [n] identical null-CGI requests. *)
val null_cgi_trace : n:int -> Trace.t

(** [mean_file_bytes] is the expected document size of the mix. *)
val mean_file_bytes : float
