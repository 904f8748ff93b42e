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

(* The "xd" arg carries the per-key demand so that replay against the server
   model reproduces the trace's service times (see Cgi.Cost.From_query). *)
let cgi_item ~id ~script ~qkey ~demand ~out_bytes =
  {
    Trace.id;
    kind =
      Trace.Cgi
        {
          script;
          args =
            [
              ("q", qkey);
              ("xd", Printf.sprintf "%.9g" demand);
              ("xb", string_of_int out_bytes);
            ];
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
  let hot_pop = Sim.Dist.Zipf.make ~n:p.n_hot ~s:p.hot_zipf_s in
  let file_pop = Sim.Dist.Zipf.make ~n:p.n_files ~s:p.file_zipf_s in
  let file_bytes =
    Array.init p.n_files (fun _ ->
        int_of_float
          (Sim.Dist.lognormal_mean_cv rng_size ~mean:12_000. ~cv:2.0))
  in
  let next_cold = ref 0 in
  let items =
    List.init p.n_requests (fun id ->
        if Sim.Rng.float rng_kind < p.cgi_fraction then
          if Sim.Rng.float rng_kind < p.p_hot then begin
            let k = Sim.Dist.Zipf.draw hot_pop rng_hot in
            cgi_item ~id ~script:query_script
              ~qkey:(Printf.sprintf "hot%04d" k)
              ~demand:hot_demand.(k) ~out_bytes:p.cgi_out_bytes
          end
          else begin
            incr next_cold;
            let demand =
              Sim.Dist.lognormal_mean_cv rng_cold ~mean:p.cold_mean
                ~cv:p.cold_cv
            in
            cgi_item ~id ~script:query_script
              ~qkey:(Printf.sprintf "cold%06d" !next_cold)
              ~demand ~out_bytes:p.cgi_out_bytes
          end
        else begin
          let k = Sim.Dist.Zipf.draw file_pop rng_file in
          {
            Trace.id;
            kind =
              Trace.File
                {
                  path = Printf.sprintf "/adl/doc%05d.html" k;
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
  let hot_pop = Sim.Dist.Zipf.make ~n:n_hot ~s:zipf_s in
  for _ = 1 to n_repeats do
    let k = Sim.Dist.Zipf.draw hot_pop rng_rep in
    occurrences.(k) <- occurrences.(k) + 1
  done;
  (* Position each occurrence on a virtual timeline; repeats of a key follow
     its first occurrence at exponentially-distributed gaps of mean
     [locality] (fraction of the trace), clustering references. *)
  let placed = ref [] in
  for k = 0 to n_unique - 1 do
    let base = Sim.Rng.float rng_pos in
    let pos = ref base in
    for _ = 1 to occurrences.(k) do
      placed := (!pos, k) :: !placed;
      pos := !pos +. Sim.Dist.exponential rng_pos ~mean:locality
    done
  done;
  let arr = Array.of_list !placed in
  Array.sort
    (fun (p1, k1) (p2, k2) ->
      let c = Float.compare p1 p2 in
      if c <> 0 then c else Int.compare k1 k2)
    arr;
  Array.to_list
    (Array.mapi
       (fun id (_, k) ->
         cgi_item ~id ~script:query_script
           ~qkey:(Printf.sprintf "key%05d" k)
           ~demand ~out_bytes)
       arr)

let unique_cacheable ~n ~demand =
  List.init n (fun id ->
      cgi_item ~id ~script:unique_script
        ~qkey:(Printf.sprintf "u%06d" id)
        ~demand ~out_bytes:4096)

let uncacheable ~n ~demand =
  List.init n (fun id ->
      cgi_item ~id ~script:private_script
        ~qkey:(Printf.sprintf "p%06d" id)
        ~demand ~out_bytes:4096)

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
