type align = Left | Right

type t = {
  title : string;
  headers : string array;
  aligns : align array;
  rows : string array list;
}

type 'r column = { header : string; align : align; cell : 'r -> string }

let left header cell = { header; align = Left; cell }
let right header cell = { header; align = Right; cell }

let of_rows ~title columns rows =
  let columns = Array.of_list columns in
  {
    title;
    headers = Array.map (fun c -> c.header) columns;
    aligns = Array.map (fun c -> c.align) columns;
    rows = List.map (fun r -> Array.map (fun c -> c.cell r) columns) rows;
  }

let fmt_f ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x
let fmt_pct ?(decimals = 1) x = Printf.sprintf "%.*f%%" decimals (100. *. x)
let fmt_i n = string_of_int n

let render t =
  let ncols = Array.length t.headers in
  let width = Array.make ncols 0 in
  let measure row =
    Array.iteri
      (fun i cell -> if String.length cell > width.(i) then width.(i) <- String.length cell)
      row
  in
  measure t.headers;
  List.iter measure t.rows;
  let buf = Buffer.create 256 in
  let pad i cell =
    let w = width.(i) in
    let n = w - String.length cell in
    match t.aligns.(i) with
    | Left -> cell ^ String.make n ' '
    | Right -> String.make n ' ' ^ cell
  in
  let emit_row row =
    Array.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_char buf '\n'
  in
  let total_width =
    Array.fold_left ( + ) 0 width + (2 * (ncols - 1))
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (Stdlib.max total_width (String.length t.title)) '-');
  Buffer.add_char buf '\n';
  emit_row t.headers;
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter emit_row t.rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 256 in
  let emit row =
    Buffer.add_string buf
      (String.concat "," (List.map csv_field (Array.to_list row)));
    Buffer.add_char buf '\n'
  in
  emit t.headers;
  List.iter emit t.rows;
  Buffer.contents buf
