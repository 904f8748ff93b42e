type t =
  | Rendered of string
  | Deferred of { length : int; render : unit -> string }

let empty = Rendered ""
let of_string s = Rendered s

let deferred ~length render =
  if length < 0 then invalid_arg "Body.deferred: negative length";
  Deferred { length; render }

let length = function Rendered s -> String.length s | Deferred d -> d.length

let to_string = function
  | Rendered s -> s
  | Deferred { length; render } ->
      let s = render () in
      if String.length s <> length then
        invalid_arg
          (Printf.sprintf "Body.to_string: rendered %d bytes, declared %d"
             (String.length s) length);
      s
