type kind =
  | File of { path : string; bytes : int }
  | Cgi of {
      script : string;
      args : (string * string) list;
      demand : float;
      out_bytes : int;
    }

type item = { id : int; kind : kind }
type t = item list

(* Nominal unloaded file-fetch time for offline analysis: open cost plus
   buffer-cache read at 80 MB/s — the same constants the server model
   charges. *)
let file_time bytes = 0.002 +. (float_of_int bytes /. 80e6)

let to_request item =
  match item.kind with
  | File { path; _ } -> Http.Request.get path
  | Cgi { script; args; _ } ->
      Http.Request.of_uri Http.Meth.Get { Http.Uri.path = script; query = args }

let key item = Http.Request.cache_key (to_request item)

let service_time item =
  match item.kind with
  | File { bytes; _ } -> file_time bytes
  | Cgi { demand; _ } -> demand

let is_cgi item = match item.kind with Cgi _ -> true | File _ -> false

let unique_keys t =
  let seen = Hashtbl.create 1024 in
  List.iter (fun item -> Hashtbl.replace seen (key item) ()) t;
  Hashtbl.length seen

let total_service t = List.fold_left (fun acc i -> acc +. service_time i) 0. t
let length = List.length
