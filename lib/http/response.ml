type t = {
  status : Status.t;
  version : string;
  headers : Headers.t;
  body : Body.t;
}

let make ?(headers = Headers.empty) ?(body = Body.empty) status =
  { status; version = "HTTP/1.0"; headers; body }

let html = Headers.add Headers.empty "Content-Type" "text/html"
let ok body = make ~headers:html ~body Status.Ok

(* The message often echoes request text (a path, a malformed request
   line), so it is escaped before it goes into markup. *)
let escape_html s =
  let special = function '&' | '<' | '>' | '"' | '\'' -> true | _ -> false in
  if not (String.exists special s) then s
  else begin
    let buf = Buffer.create (String.length s + 16) in
    String.iter
      (function
        | '&' -> Buffer.add_string buf "&amp;"
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '"' -> Buffer.add_string buf "&quot;"
        | '\'' -> Buffer.add_string buf "&#39;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let error status message =
  let body =
    Printf.sprintf "<html><body><h1>%d %s</h1><p>%s</p></body></html>"
      (Status.code status) (Status.reason status) (escape_html message)
  in
  make ~headers:html ~body:(Body.of_string body) status

let to_wire t =
  let body = Body.to_string t.body in
  let buf = Buffer.create (String.length body + 128) in
  Buffer.add_string buf t.version;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (Status.code t.status));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Status.reason t.status);
  Buffer.add_string buf "\r\n";
  let headers =
    if not (Headers.mem t.headers "Content-Length") then
      Headers.replace t.headers "Content-Length"
        (string_of_int (String.length body))
    else t.headers
  in
  Wire.add_fields buf headers;
  Buffer.add_string buf body;
  Buffer.contents buf

(* [String.length (to_wire t)], summed from the parts instead of built:
   a CGI reply's body is never rendered just to be counted. *)
let wire_size t =
  let body = Body.length t.body in
  let content_length =
    if Headers.mem t.headers "Content-Length" then 0
    else String.length "Content-Length: \r\n" + Wire.decimal_length body
  in
  String.length t.version
  + Wire.decimal_length (Status.code t.status)
  + String.length (Status.reason t.status)
  + 4 (* two spaces and the CRLF ending the status line *)
  + Wire.headers_size (Headers.to_list t.headers)
  + content_length + 2 + body
