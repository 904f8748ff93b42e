let split_head s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then (List.rev acc, n)
    else
      match String.index_from_opt s i '\n' with
      | None -> (List.rev (String.sub s i (n - i) :: acc), n)
      | Some j ->
          let stop = if j > i && s.[j - 1] = '\r' then j - 1 else j in
          let line = String.sub s i (stop - i) in
          if String.equal line "" then (List.rev acc, j + 1)
          else go (j + 1) (line :: acc)
  in
  go 0 []

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "malformed header line %S" line)
  | Some i ->
      let name = String.sub line 0 i in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      if String.equal (String.trim name) "" then Error "empty header name"
      else Ok (String.trim name, value)

let parse_fields s header_lines ~body_off =
  let rec headers acc = function
    | [] -> Ok (Headers.of_list (List.rev acc))
    | line :: rest -> (
        match parse_header_line line with
        | Ok kv -> headers (kv :: acc) rest
        | Error e -> Error e)
  in
  match headers [] header_lines with
  | Error e -> Error e
  | Ok hs ->
      let avail = String.length s - body_off in
      let want =
        match Headers.content_length hs with
        | Some n -> Stdlib.min n avail
        | None -> avail
      in
      Ok (hs, String.sub s body_off (Stdlib.max 0 want))

let add_fields buf hs =
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf ": ";
      Buffer.add_string buf v;
      Buffer.add_string buf "\r\n")
    (Headers.to_list hs);
  Buffer.add_string buf "\r\n"

let rec decimal_length n = if n < 10 then 1 else 1 + decimal_length (n / 10)

let headers_size hs =
  List.fold_left
    (fun acc (k, v) -> acc + String.length k + String.length v + 4)
    0 hs
