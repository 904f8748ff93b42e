type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let float_opt = function None -> Null | Some v -> Float v

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.17g round-trips every float but is noisy; try shorter renderings
   first and keep the first one that parses back exactly. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s9 = Printf.sprintf "%.9g" f in
    if float_of_string s9 = f then s9 else Printf.sprintf "%.17g" f

let rec add_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* JSON has no NaN/infinity literal. *)
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | Str s -> escape_into buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_into buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          add_into buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_into buf v;
  Buffer.contents buf

let write oc v =
  output_string oc (to_string v);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parser — recursive descent over a string. Added for the tools that
   read metrics dumps back (bin/metrics_diff, swala_sim report); the
   simulator itself still only emits. Integral numbers without
   exponent/fraction parse as [Int] so that emit/parse round-trips the
   constructors the emitter chose. *)

exception Parse_error of string

let parse_fail pos msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> parse_fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else parse_fail !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then parse_fail !pos "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then parse_fail !pos "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> parse_fail !pos "bad \\u escape"
              in
              pos := !pos + 4;
              (* UTF-8 encode the BMP code point; surrogate pairs are not
                 reassembled — metrics content is ASCII in practice. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> parse_fail !pos (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let integral = ref true in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          go ()
      | Some ('.' | 'e' | 'E') ->
          integral := false;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    let lit = String.sub s start (!pos - start) in
    if !integral then
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> parse_fail start ("bad number " ^ lit))
    else
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> parse_fail start ("bad number " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> parse_fail !pos "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> parse_fail !pos "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> parse_fail !pos (Printf.sprintf "unexpected %C" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos < n then Error (Printf.sprintf "trailing input at byte %d" !pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* An open error names the path; a read error (on a directory, say) does
   not, so the path is added to it as to a parse error. *)
let of_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let text =
        match In_channel.input_all ic with
        | text -> Ok text
        | exception Sys_error e -> Error e
      in
      close_in_noerr ic;
      Result.map_error (fun e -> path ^ ": " ^ e) (Result.bind text of_string)

(* Member lookup helpers for the read-back tools. *)
let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let keys = function Obj fields -> List.map fst fields | _ -> []

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
