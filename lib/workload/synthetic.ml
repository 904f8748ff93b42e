type adl_params = {
  n_requests : int;
  cgi_fraction : float;
  n_hot : int;
  p_hot : float;
  hot_zipf_s : float;
  hot_mean : float;
  hot_cv : float;
  cold_mean : float;
  cold_cv : float;
  n_files : int;
  file_zipf_s : float;
  cgi_out_bytes : int;
}

(* Calibration: 0.105 * 4.6 + 0.895 * 1.25 = 1.60 s mean CGI demand, matching
   the paper's measured average; ~220 hot queries concentrate the repeats the
   way the paper's Table 1 reports (~190 distinct requests above the 1 s
   threshold account for the bulk of the saving). *)
let default_adl =
  {
    n_requests = 69_337;
    cgi_fraction = 0.413;
    n_hot = 220;
    p_hot = 0.105;
    hot_zipf_s = 0.6;
    hot_mean = 4.6;
    hot_cv = 1.2;
    cold_mean = 1.25;
    cold_cv = 2.0;
    n_files = 3_000;
    file_zipf_s = 0.9;
    cgi_out_bytes = 8_192;
  }

let query_script = "/cgi-bin/query"
let unique_script = "/cgi-bin/unique"
let private_script = "/cgi-bin/private"

(* [Printf.sprintf "%.9g"] formats through this primitive; calling it
   directly gives the same bytes without interpreting a format. *)
external format_float : string -> float -> string = "caml_format_float"

let demand_arg demand = format_float "%.9g" demand

(* [n >= 0] in decimal, zero-padded to [width] digits, as
   [Printf.sprintf "%0*d" width n] prints it. *)
let zero_pad width n =
  let digits = string_of_int n in
  let pad = width - String.length digits in
  if pad <= 0 then digits else String.make pad '0' ^ digits

(* The "xd" arg carries the per-key demand so that replay against the server
   model reproduces the trace's service times (see Cgi.Cost.From_query);
   "xb" carries the output size. A trace whose items share a demand or a
   size shares the formatted string. *)
let cgi_item ~id ~script ~qkey ~xd ~xb ~demand ~out_bytes =
  {
    Trace.id;
    kind =
      Trace.Cgi
        {
          script;
          args = [ ("q", qkey); ("xd", xd); ("xb", xb) ];
          demand;
          out_bytes;
        };
  }

let adl ~seed ?(params = default_adl) () =
  let p = params in
  if p.n_requests < 1 then invalid_arg "Synthetic.adl: n_requests must be >= 1";
  let rng = Sim.Rng.create seed in
  let rng_kind = Sim.Rng.split rng in
  let rng_hot = Sim.Rng.split rng in
  let rng_cold = Sim.Rng.split rng in
  let rng_file = Sim.Rng.split rng in
  let rng_size = Sim.Rng.split rng in
  (* Hot queries: per-key demand fixed at creation. *)
  let hot_demand =
    Array.init p.n_hot (fun _ ->
        Sim.Dist.lognormal_mean_cv rng_hot ~mean:p.hot_mean ~cv:p.hot_cv)
  in
  let hot_pop = Sim.Dist.zipf ~n:p.n_hot ~s:p.hot_zipf_s in
  let file_pop = Sim.Dist.zipf ~n:p.n_files ~s:p.file_zipf_s in
  let file_bytes =
    Array.init p.n_files (fun _ ->
        int_of_float
          (Sim.Dist.lognormal_mean_cv rng_size ~mean:12_000. ~cv:2.0))
  in
  let xb = string_of_int p.cgi_out_bytes in
  let next_cold = ref 0 in
  let items =
    List.init p.n_requests (fun id ->
        if Sim.Rng.float rng_kind < p.cgi_fraction then
          if Sim.Rng.float rng_kind < p.p_hot then begin
            let k = Sim.Dist.Discrete.draw hot_pop rng_hot in
            let demand = hot_demand.(k) in
            cgi_item ~id ~script:query_script ~qkey:("hot" ^ zero_pad 4 k)
              ~xd:(demand_arg demand) ~xb ~demand ~out_bytes:p.cgi_out_bytes
          end
          else begin
            incr next_cold;
            let demand =
              Sim.Dist.lognormal_mean_cv rng_cold ~mean:p.cold_mean
                ~cv:p.cold_cv
            in
            cgi_item ~id ~script:query_script
              ~qkey:("cold" ^ zero_pad 6 !next_cold)
              ~xd:(demand_arg demand) ~xb ~demand ~out_bytes:p.cgi_out_bytes
          end
        else begin
          let k = Sim.Dist.Discrete.draw file_pop rng_file in
          {
            Trace.id;
            kind =
              Trace.File
                {
                  path = "/adl/doc" ^ zero_pad 5 k ^ ".html";
                  bytes = file_bytes.(k);
                };
          }
        end)
  in
  items

let adl_scaled ~seed ~n =
  let scale = float_of_int n /. float_of_int default_adl.n_requests in
  let params =
    {
      default_adl with
      n_requests = n;
      n_hot = Stdlib.max 8 (int_of_float (float_of_int default_adl.n_hot *. scale));
      n_files =
        Stdlib.max 16 (int_of_float (float_of_int default_adl.n_files *. scale));
    }
  in
  adl ~seed ~params ()

let coop ~seed ~n ~n_unique ?(n_hot = Stdlib.min 120 n_unique) ?(zipf_s = 0.8)
    ?(demand = 1.0) ?(out_bytes = 4096) ?(locality = 1.0) () =
  if n_unique > n then invalid_arg "Synthetic.coop: n_unique > n";
  if n_hot > n_unique then invalid_arg "Synthetic.coop: n_hot > n_unique";
  if n_hot < 1 then invalid_arg "Synthetic.coop: n_hot must be >= 1";
  if locality <= 0. then invalid_arg "Synthetic.coop: locality must be > 0";
  let rng = Sim.Rng.create seed in
  let rng_rep = Sim.Rng.split rng in
  let rng_pos = Sim.Rng.split rng in
  let n_repeats = n - n_unique in
  (* Occurrence counts: every unique key once, plus n_repeats extras spread
     over the hot keys by Zipf weight. *)
  let occurrences = Array.make n_unique 1 in
  let hot_pop = Sim.Dist.zipf ~n:n_hot ~s:zipf_s in
  for _ = 1 to n_repeats do
    let k = Sim.Dist.Discrete.draw hot_pop rng_rep in
    occurrences.(k) <- occurrences.(k) + 1
  done;
  (* Position each occurrence on a virtual timeline; repeats of a key follow
     its first occurrence at exponentially-distributed gaps of mean
     [locality] (fraction of the trace), clustering references. The n
     occurrences go in flat position and key columns. *)
  let pos = Array.make n 0. and key = Array.make n 0 in
  let i = ref 0 in
  for k = 0 to n_unique - 1 do
    let p = ref (Sim.Rng.float rng_pos) in
    for _ = 1 to occurrences.(k) do
      pos.(!i) <- !p;
      key.(!i) <- k;
      incr i;
      p := !p +. Sim.Dist.exponential rng_pos ~mean:locality
    done
  done;
  (* Trace order is (position, key) order. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare pos.(a) pos.(b) in
      if c <> 0 then c else Int.compare key.(a) key.(b))
    order;
  let qkey = Array.init n_unique (fun k -> "key" ^ zero_pad 5 k) in
  let xd = demand_arg demand and xb = string_of_int out_bytes in
  List.init n (fun id ->
      cgi_item ~id ~script:query_script ~qkey:qkey.(key.(order.(id))) ~xd ~xb
        ~demand ~out_bytes)

(* [n] one-per-key items of [script], keyed [prefix] and a six-digit id. *)
let distinct ~script ~prefix ~n ~demand =
  let out_bytes = 4096 in
  let xd = demand_arg demand and xb = string_of_int out_bytes in
  List.init n (fun id ->
      cgi_item ~id ~script ~qkey:(prefix ^ zero_pad 6 id) ~xd ~xb ~demand
        ~out_bytes)

let unique_cacheable ~n ~demand =
  distinct ~script:unique_script ~prefix:"u" ~n ~demand

let uncacheable ~n ~demand =
  distinct ~script:private_script ~prefix:"p" ~n ~demand

let register_scripts registry =
  let from_query = Cgi.Cost.From_query { default = 1.0 } in
  Cgi.Registry.register registry
    (Cgi.Script.make ~name:query_script
       (Cgi.Cost.make ~output_bytes:8_192 from_query));
  Cgi.Registry.register registry
    (Cgi.Script.make ~name:unique_script
       (Cgi.Cost.make ~output_bytes:4_096 from_query));
  Cgi.Registry.register registry
    (Cgi.Script.make ~cacheable:false ~name:private_script
       (Cgi.Cost.make ~output_bytes:4_096 from_query));
  Cgi.Registry.register registry Cgi.Script.null

let register_trace_files registry trace =
  List.iter
    (fun (item : Trace.item) ->
      match item.Trace.kind with
      | Trace.File { path; bytes } ->
          Cgi.Registry.register_file registry ~path ~bytes
      | Trace.Cgi _ -> ())
    trace
