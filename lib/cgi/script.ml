type t = {
  name : string;
  cost : Cost.t;
  cacheable : bool;
  ttl : float option;
  failure_rate : float;
  sources : string list;
}

let make ?(cacheable = true) ?(ttl = None) ?(failure_rate = 0.) ?(sources = [])
    ~name cost =
  if String.length name = 0 || name.[0] <> '/' then
    invalid_arg "Script.make: name must be an absolute path";
  if failure_rate < 0. || failure_rate > 1. then
    invalid_arg "Script.make: failure_rate out of [0,1]";
  { name; cost; cacheable; ttl; failure_rate; sources }

let null =
  make ~name:"/cgi-bin/nullcgi"
    (Cost.make ~output_bytes:64 (Cost.Fixed 0.))

(* The filler at offset [i] is [32 + (h + i) mod 95] — one full cycle of
   the printable ASCII range, phase-shifted by the key hash. Rather than
   computing it per character, blit 95-byte windows out of two
   concatenated cycles: [pattern.[j] = 32 + j mod 95] for [j < 190], so
   the window starting at [h mod 95] spells the whole body. *)
let pattern =
  String.init 190 (fun j -> Char.chr (32 + (j mod 95)))

(* Deterministic body: experiments compare bodies fetched from cache with
   bodies from re-execution, so identical keys must yield identical text. *)
let output_sized t ~key ~bytes =
  let h = Hashtbl.hash (t.name, key) in
  let payload_len = Stdlib.max 0 (bytes - 96) in
  let buf = Buffer.create (payload_len + 96) in
  Buffer.add_string buf "<html><body><!-- ";
  Buffer.add_string buf t.name;
  Buffer.add_string buf (Printf.sprintf " h=%08x -->" h);
  let start = h mod 95 in
  let i = ref 0 in
  while payload_len - !i >= 95 do
    Buffer.add_substring buf pattern start 95;
    i := !i + 95
  done;
  Buffer.add_substring buf pattern start (payload_len - !i);
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let output t ~key = output_sized t ~key ~bytes:t.cost.Cost.output_bytes

(* [String.length (output_sized t ~key ~bytes)] for any key: 17 bytes of
   "<html><body><!-- ", the name, 15 of " h=%08x -->" (the hash is below
   2^30, so eight hex digits), the payload and 14 of "</body></html>". *)
let body_length t ~bytes = 46 + String.length t.name + max 0 (bytes - 96)

(* The result as a description: its length is computed, and the bytes
   are rendered only when someone reads them. *)
let body t ~key ~bytes =
  Http.Body.deferred ~length:(body_length t ~bytes) (fun () ->
      output_sized t ~key ~bytes)
