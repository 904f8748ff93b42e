type decision = {
  cacheable : bool;
  ttl : float option;
  threshold : float option;
}

type rule = { prefix : string; decision : decision }

type t = {
  rules : rule list; (* sorted by prefix length, longest first *)
  default_cacheable : bool;
  default_ttl : float option;
  default_threshold : float option;
}

let empty =
  {
    rules = [];
    default_cacheable = true;
    default_ttl = None;
    default_threshold = None;
  }

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.equal prefix (String.sub s 0 (String.length prefix))

let decide t path =
  let rec go = function
    | [] ->
        {
          cacheable = t.default_cacheable;
          ttl = t.default_ttl;
          threshold = t.default_threshold;
        }
    | r :: rest -> if is_prefix ~prefix:r.prefix path then r.decision else go rest
  in
  go t.rules

let rule_count t = List.length t.rules

(* --- parsing ------------------------------------------------------- *)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> not (String.equal w ""))

let parse_attr attr =
  match String.index_opt attr '=' with
  | None -> Error (Printf.sprintf "malformed attribute %S (want key=value)" attr)
  | Some i -> (
      let key = String.sub attr 0 i in
      let value = String.sub attr (i + 1) (String.length attr - i - 1) in
      match (key, float_of_string_opt value) with
      | "ttl", Some v when v > 0. -> Ok (`Ttl v)
      | "threshold", Some v when v >= 0. -> Ok (`Threshold v)
      | ("ttl" | "threshold"), _ ->
          Error (Printf.sprintf "bad value in %S" attr)
      | _ -> Error (Printf.sprintf "unknown attribute %S" key))

let parse_path p =
  if String.length p > 0 && p.[0] = '/' then Ok p
  else Error (Printf.sprintf "path %S must start with '/'" p)

let parse_line line =
  match split_ws line with
  | [] -> Ok `Blank
  | word :: _ when String.length word > 0 && word.[0] = '#' -> Ok `Blank
  | "cache" :: path :: attrs -> (
      match parse_path path with
      | Error e -> Error e
      | Ok path ->
          let rec fold ttl threshold = function
            | [] ->
                Ok
                  (`Rule
                    { prefix = path; decision = { cacheable = true; ttl; threshold } })
            | attr :: rest -> (
                match parse_attr attr with
                | Ok (`Ttl v) -> fold (Some v) threshold rest
                | Ok (`Threshold v) -> fold ttl (Some v) rest
                | Error e -> Error e)
          in
          fold None None attrs)
  | [ "nocache"; path ] ->
      Result.map
        (fun path ->
          `Rule
            {
              prefix = path;
              decision = { cacheable = false; ttl = None; threshold = None };
            })
        (parse_path path)
  | [ "default"; "cache" ] -> Ok (`Default true)
  | [ "default"; "nocache" ] -> Ok (`Default false)
  | [ "default-ttl"; v ] -> (
      match float_of_string_opt v with
      | Some ttl when ttl > 0. -> Ok (`Default_ttl ttl)
      | Some _ | None -> Error (Printf.sprintf "bad default-ttl %S" v))
  | [ "default-threshold"; v ] -> (
      match float_of_string_opt v with
      | Some th when th >= 0. -> Ok (`Default_threshold th)
      | Some _ | None -> Error (Printf.sprintf "bad default-threshold %S" v))
  | word :: _ -> Error (Printf.sprintf "unknown directive %S" word)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go acc n = function
    | [] ->
        let sorted =
          List.stable_sort
            (fun a b ->
              Int.compare (String.length b.prefix) (String.length a.prefix))
            acc.rules
        in
        Ok { acc with rules = sorted }
    | line :: rest -> (
        match parse_line line with
        | Ok `Blank -> go acc (n + 1) rest
        | Ok (`Rule r) -> go { acc with rules = r :: acc.rules } (n + 1) rest
        | Ok (`Default d) -> go { acc with default_cacheable = d } (n + 1) rest
        | Ok (`Default_ttl ttl) ->
            go { acc with default_ttl = Some ttl } (n + 1) rest
        | Ok (`Default_threshold th) ->
            go { acc with default_threshold = Some th } (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go empty 1 lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# swala cacheability rules\n";
  Buffer.add_string buf
    (if t.default_cacheable then "default cache\n" else "default nocache\n");
  (match t.default_ttl with
  | Some ttl -> Buffer.add_string buf (Printf.sprintf "default-ttl %g\n" ttl)
  | None -> ());
  (match t.default_threshold with
  | Some th ->
      Buffer.add_string buf (Printf.sprintf "default-threshold %g\n" th)
  | None -> ());
  List.iter
    (fun r ->
      if r.decision.cacheable then begin
        Buffer.add_string buf ("cache " ^ r.prefix);
        (match r.decision.ttl with
        | Some ttl -> Buffer.add_string buf (Printf.sprintf " ttl=%g" ttl)
        | None -> ());
        (match r.decision.threshold with
        | Some th -> Buffer.add_string buf (Printf.sprintf " threshold=%g" th)
        | None -> ());
        Buffer.add_char buf '\n'
      end
      else Buffer.add_string buf ("nocache " ^ r.prefix ^ "\n"))
    t.rules;
  Buffer.contents buf
