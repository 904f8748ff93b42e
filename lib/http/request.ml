type t = {
  meth : Meth.t;
  uri : Uri.t;
  version : string;
  headers : Headers.t;
  body : string;
}

let make ?(headers = Headers.empty) ?(body = "") meth target =
  match Uri.parse target with
  | Ok uri -> { meth; uri; version = "HTTP/1.0"; headers; body }
  | Error e -> invalid_arg ("Request.make: " ^ e)

(* A decoded path and query print and parse back to themselves, so the
   one check [Uri.parse] makes on its own is the whole of [make]'s
   validation. *)
let of_uri ?(headers = Headers.empty) ?(body = "") meth (uri : Uri.t) =
  if not (Uri.absolute_path uri.path) then
    invalid_arg "Request.of_uri: request-URI must be absolute (start with '/')";
  { meth; uri; version = "HTTP/1.0"; headers; body }

let get target = make Meth.Get target

let parse s =
  match Wire.split_head s with
  | [], _ -> Error "empty request"
  | request_line :: header_lines, body_off -> (
      match String.split_on_char ' ' request_line with
      | [ m; target; version ] -> (
          match Meth.of_string m with
          | Error e -> Error e
          | Ok meth -> (
              match Uri.parse target with
              | Error e -> Error e
              | Ok uri ->
                  Wire.parse_fields s header_lines ~body_off
                  |> Result.map (fun (headers, body) ->
                         { meth; uri; version; headers; body })))
      | _ -> Error (Printf.sprintf "malformed request line %S" request_line))

let to_wire t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Meth.to_string t.meth);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Uri.to_string t.uri);
  Buffer.add_char buf ' ';
  Buffer.add_string buf t.version;
  Buffer.add_string buf "\r\n";
  let headers =
    if String.length t.body > 0 && not (Headers.mem t.headers "Content-Length")
    then
      Headers.replace t.headers "Content-Length"
        (string_of_int (String.length t.body))
    else t.headers
  in
  Wire.add_fields buf headers;
  Buffer.add_string buf t.body;
  Buffer.contents buf

let cache_key t =
  Meth.to_string t.meth ^ " " ^ Uri.to_string (Uri.canonical t.uri)

let of_cache_key key =
  match String.index_opt key ' ' with
  | None -> None
  | Some i -> (
      let target = String.sub key (i + 1) (String.length key - i - 1) in
      match (Meth.of_string (String.sub key 0 i), Uri.parse target) with
      | Ok meth, Ok uri -> Some (of_uri meth uri)
      | Error _, _ | _, Error _ -> None)

(* [String.length (to_wire t)], summed from the parts instead of built. *)
let wire_size t =
  let body = String.length t.body in
  let content_length =
    if body > 0 && not (Headers.mem t.headers "Content-Length") then
      String.length "Content-Length: \r\n" + Wire.decimal_length body
    else 0
  in
  String.length (Meth.to_string t.meth)
  + Uri.encoded_length t.uri
  + String.length t.version
  + 4 (* two spaces and the CRLF ending the request line *)
  + Wire.headers_size (Headers.to_list t.headers)
  + content_length + 2 + body
