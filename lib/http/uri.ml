type t = { path : string; query : (string * string) list }

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Ok (Buffer.contents buf)
    else
      match s.[i] with
      | '%' ->
          if i + 2 >= n then Error "truncated percent escape"
          else (
            match (hex_val s.[i + 1], hex_val s.[i + 2]) with
            | Some h, Some l ->
                Buffer.add_char buf (Char.chr ((h * 16) + l));
                go (i + 3)
            | _ -> Error (Printf.sprintf "bad percent escape at %d" i))
      | '+' ->
          Buffer.add_char buf ' ';
          go (i + 1)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0

let safe_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '-' | '_' | '.' | '~' | '/' -> true
  | _ -> false

let hex_digit = "0123456789ABCDEF"

let add_escaped buf c =
  let n = Char.code c in
  Buffer.add_char buf '%';
  Buffer.add_char buf hex_digit.[n lsr 4];
  Buffer.add_char buf hex_digit.[n land 0xf]

(* Encoding runs once per request per hop (cache keys are canonical
   URIs), and almost every path and query component is already safe, so
   scan first and return the string unchanged — no buffer, no copy —
   when nothing needs escaping. *)
let all_safe ?(extra_unsafe = '\x00') s =
  let n = String.length s in
  let rec go i =
    i >= n || (safe_char s.[i] && s.[i] <> extra_unsafe && go (i + 1))
  in
  go 0

let percent_encode s =
  if all_safe s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if safe_char c then Buffer.add_char buf c else add_escaped buf c)
      s;
    Buffer.contents buf
  end

let split_on_first ch s =
  match String.index_opt s ch with
  | None -> (s, None)
  | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let parse_query qs =
  if String.equal qs "" then Ok []
  else
    let parts = String.split_on_char '&' qs in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> go acc rest
      | part :: rest -> (
          let k, v = split_on_first '=' part in
          let v = Option.value v ~default:"" in
          match (percent_decode k, percent_decode v) with
          | Ok k, Ok v -> go ((k, v) :: acc) rest
          | Error e, _ | _, Error e -> Error e)
    in
    go [] parts

let absolute_path p = String.length p > 0 && p.[0] = '/'

let parse s =
  if String.equal s "" then Error "empty request-URI"
  else
    let raw_path, raw_query = split_on_first '?' s in
    if not (absolute_path raw_path) then
      Error "request-URI must be absolute (start with '/')"
    else
      match percent_decode raw_path with
      | Error e -> Error e
      | Ok path -> (
          match parse_query (Option.value raw_query ~default:"") with
          | Error e -> Error e
          | Ok query -> Ok { path; query })

let encode_component s =
  (* For query keys/values: '/' is not safe there. *)
  if all_safe ~extra_unsafe:'/' s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if safe_char c && c <> '/' then Buffer.add_char buf c
        else add_escaped buf c)
      s;
    Buffer.contents buf
  end

(* The byte count of [s] once escaped as [percent_encode] ([slash]) or
   [encode_component] (not [slash]) would: counted, not built. *)
let escaped_length ~slash s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    n := !n + if safe_char c && (slash || c <> '/') then 1 else 3
  done;
  !n

let encoded_length t =
  List.fold_left
    (fun acc (k, v) ->
      (* one '?' or '&' before the pair, one '=' inside it *)
      acc + escaped_length ~slash:false k + escaped_length ~slash:false v + 2)
    (escaped_length ~slash:true t.path)
    t.query

let to_string t =
  let path = percent_encode t.path in
  match t.query with
  | [] -> path
  | q ->
      let pairs =
        List.map
          (fun (k, v) -> encode_component k ^ "=" ^ encode_component v)
          q
      in
      path ^ "?" ^ String.concat "&" pairs

let canonical t =
  let cmp (k1, v1) (k2, v2) =
    let c = String.compare k1 k2 in
    if c <> 0 then c else String.compare v1 v2
  in
  { t with query = List.stable_sort cmp t.query }

let query_get t name =
  match List.find_opt (fun (k, _) -> String.equal k name) t.query with
  | Some (_, v) -> Some v
  | None -> None

let equal a b =
  String.equal a.path b.path
  && List.length a.query = List.length b.query
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a.query b.query
