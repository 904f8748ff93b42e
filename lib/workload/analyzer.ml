type row = {
  threshold : float;
  n_long : int;
  total_repeats : int;
  unique_repeats : int;
  time_saved : float;
  saved_fraction : float;
}

let table1 trace ~thresholds =
  let total_service = Trace.total_service trace in
  List.map
    (fun threshold ->
      let counts : (string, int * float) Hashtbl.t = Hashtbl.create 1024 in
      let n_long = ref 0 in
      List.iter
        (fun item ->
          if Trace.is_cgi item then begin
            let t = Trace.service_time item in
            if t >= threshold then begin
              incr n_long;
              let key = Trace.key item in
              let n, _ =
                Option.value (Hashtbl.find_opt counts key) ~default:(0, t)
              in
              Hashtbl.replace counts key (n + 1, t)
            end
          end)
        trace;
      let total_repeats = ref 0 in
      let unique_repeats = ref 0 in
      let time_saved = ref 0. in
      Hashtbl.iter
        (fun _ (n, t) ->
          if n >= 2 then begin
            incr unique_repeats;
            total_repeats := !total_repeats + (n - 1);
            time_saved := !time_saved +. (float_of_int (n - 1) *. t)
          end)
        counts;
      {
        threshold;
        n_long = !n_long;
        total_repeats = !total_repeats;
        unique_repeats = !unique_repeats;
        time_saved = !time_saved;
        saved_fraction =
          (if total_service > 0. then !time_saved /. total_service else 0.);
      })
    thresholds

type summary = {
  n_total : int;
  n_cgi : int;
  cgi_fraction : float;
  total_service : float;
  mean_response : float;
  mean_file_time : float;
  mean_cgi_time : float;
  cgi_time_fraction : float;
  longest : float;
}

let summarize trace =
  let n_total = ref 0 in
  let n_cgi = ref 0 in
  let total = ref 0. in
  let cgi_time = ref 0. in
  let file_time = ref 0. in
  let longest = ref 0. in
  List.iter
    (fun item ->
      incr n_total;
      let t = Trace.service_time item in
      total := !total +. t;
      if t > !longest then longest := t;
      if Trace.is_cgi item then begin
        incr n_cgi;
        cgi_time := !cgi_time +. t
      end
      else file_time := !file_time +. t)
    trace;
  let n_files = !n_total - !n_cgi in
  let safe_div a b = if b = 0 then 0. else a /. float_of_int b in
  {
    n_total = !n_total;
    n_cgi = !n_cgi;
    cgi_fraction =
      (if !n_total = 0 then 0.
       else float_of_int !n_cgi /. float_of_int !n_total);
    total_service = !total;
    mean_response = safe_div !total !n_total;
    mean_file_time = safe_div !file_time n_files;
    mean_cgi_time = safe_div !cgi_time !n_cgi;
    cgi_time_fraction = (if !total > 0. then !cgi_time /. !total else 0.);
    longest = !longest;
  }

let upper_bound_hits trace =
  let seen = Hashtbl.create 1024 in
  let hits = ref 0 in
  List.iter
    (fun item ->
      if Trace.is_cgi item then begin
        let key = Trace.key item in
        if Hashtbl.mem seen key then incr hits else Hashtbl.add seen key ()
      end)
    trace;
  !hits
