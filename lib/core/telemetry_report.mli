(** Plain-text rendering of the flight recorder's output: probe
    timelines as summary rows with ASCII sparklines, and the health
    monitor's incident log. The [swala_sim] CLI prints it after a
    telemetry run, from the run's own metrics JSON, and in the [report]
    subcommand, from a saved metrics-JSON file. *)

(** [render_json_report payload] renders the ["timelines"] and
    ["incidents"] sections of a parsed metrics-JSON payload, whichever
    are present, one blank line after each table; [None] when the payload
    carries neither (telemetry was off).

    The timelines table has one row per probe: kind, non-empty bucket
    count, mean/min/max/last of the bucket values, and a sparkline over
    the buckets (space = empty bucket). The incidents table lists the
    incident records in time order. *)
val render_json_report : Metrics.Json.t -> string option
