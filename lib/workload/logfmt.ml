let encode_query args =
  let uri = { Http.Uri.path = "/x"; query = args } in
  match String.index_opt (Http.Uri.to_string uri) '?' with
  | Some i ->
      let s = Http.Uri.to_string uri in
      String.sub s (i + 1) (String.length s - i - 1)
  | None -> ""

let decode_query qs =
  match Http.Uri.parse ("/x?" ^ qs) with
  | Ok uri -> Ok uri.Http.Uri.query
  | Error e -> Error e

let item_to_line (item : Trace.item) =
  match item.Trace.kind with
  | Trace.File { path; bytes } ->
      Printf.sprintf "%d\tFILE\t%s\t%d" item.Trace.id path bytes
  | Trace.Cgi { script; args; demand; out_bytes } ->
      Printf.sprintf "%d\tCGI\t%s\t%s\t%.17g\t%d" item.Trace.id script
        (encode_query args) demand out_bytes

let item_of_line line =
  let line = String.trim line in
  if String.equal line "" || line.[0] = '#' then Ok None
  else
    match String.split_on_char '\t' line with
    | [ id; "FILE"; path; bytes ] -> (
        match (int_of_string_opt id, int_of_string_opt bytes) with
        | Some id, Some bytes ->
            Ok (Some { Trace.id; kind = Trace.File { path; bytes } })
        | _ -> Error (Printf.sprintf "bad FILE line %S" line))
    | [ id; "CGI"; script; qs; demand; out_bytes ] -> (
        match
          ( int_of_string_opt id,
            float_of_string_opt demand,
            int_of_string_opt out_bytes,
            decode_query qs )
        with
        | Some id, Some demand, Some out_bytes, Ok args ->
            Ok
              (Some
                 {
                   Trace.id;
                   kind = Trace.Cgi { script; args; demand; out_bytes };
                 })
        | _, _, _, Error e -> Error (Printf.sprintf "bad query in %S: %s" line e)
        | _ -> Error (Printf.sprintf "bad CGI line %S" line))
    | _ -> Error (Printf.sprintf "unrecognised line %S" line)

let write oc trace =
  output_string oc "# swala trace v1\n";
  List.iter
    (fun item ->
      output_string oc (item_to_line item);
      output_char oc '\n')
    trace

let to_string trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# swala trace v1\n";
  List.iter
    (fun item ->
      Buffer.add_string buf (item_to_line item);
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

let of_lines lines =
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match item_of_line line with
        | Ok (Some item) -> go (item :: acc) (n + 1) rest
        | Ok None -> go acc (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go [] 1 lines

let of_string s = of_lines (String.split_on_char '\n' s)
