type t = (string * string) list (* insertion order *)

let empty = []
let add t name value = t @ [ (name, value) ]
let norm = String.lowercase_ascii
let matches name (k, _) = String.equal (norm k) (norm name)

let get t name =
  match List.find_opt (matches name) t with
  | Some (_, v) -> Some v
  | None -> None

let get_all t name = List.filter (matches name) t |> List.map snd
let remove t name = List.filter (fun kv -> not (matches name kv)) t
let replace t name value = add (remove t name) name value
let mem t name = List.exists (matches name) t
let to_list t = t
let of_list l = l
let length = List.length

let content_length t =
  match get t "Content-Length" with
  | None -> None
  | Some v -> int_of_string_opt (String.trim v)
