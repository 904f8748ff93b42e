type t = Get | Head | Post

let to_string = function Get -> "GET" | Head -> "HEAD" | Post -> "POST"

let of_string = function
  | "GET" -> Ok Get
  | "HEAD" -> Ok Head
  | "POST" -> Ok Post
  | other -> Error (Printf.sprintf "unsupported method %S" other)

let equal a b =
  match (a, b) with
  | Get, Get | Head, Head | Post, Post -> true
  | (Get | Head | Post), _ -> false
