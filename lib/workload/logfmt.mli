(** Plain-text trace serialisation.

    One line per request, tab-separated:
    {v
    id  FILE  <path>  <bytes>
    id  CGI   <script>  <querystring>  <demand>  <out_bytes>
    v}
    The query string uses URL encoding ([a=1&b=2]). Lines starting with
    ['#'] and blank lines are skipped on input. This is the on-disk format
    consumed by [bin/loganalyze]. *)

val write : out_channel -> Trace.t -> unit

val to_string : Trace.t -> string
val of_string : string -> (Trace.t, string) result
