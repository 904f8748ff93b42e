type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 16

(* Counter bumps sit on the per-request fast path; [Hashtbl.find] with
   the exception fallback avoids the [Some] allocation of [find_opt] on
   every hit. *)
let add t name k =
  match Hashtbl.find t name with
  | r -> r := !r + k
  | exception Not_found -> Hashtbl.add t name (ref k)

let incr t name = add t name 1
let get t name = match Hashtbl.find t name with r -> !r | exception Not_found -> 0

let names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort String.compare

let merge a b =
  let out = create () in
  let fold src = Hashtbl.iter (fun k r -> add out k !r) src in
  fold a;
  fold b;
  out

let equal a b =
  names a = names b && List.for_all (fun k -> get a k = get b k) (names a)
