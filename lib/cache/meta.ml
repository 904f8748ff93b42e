type t = {
  key : string;
  owner : int;
  size : int;
  exec_time : float;
  created : float;
  expires : float option;
  hash : int;
}

(* FNV-1a over one meta's fields: the key's bytes and length, owner,
   size, and the IEEE bits of exec_time, created and expires (behind a
   presence byte). Stable across runs and processes, unlike the
   polymorphic Hashtbl.hash contract, and it allocates nothing. *)
let fnv_byte h b = (h lxor b) * 0x01000193 land 0x3FFFFFFFFFFFFFF

(* The [n] low-order bytes of [x], least significant first. *)
let fnv_bytes h x n =
  let h = ref h in
  for i = 0 to n - 1 do
    h := fnv_byte !h ((x lsr (8 * i)) land 0xff)
  done;
  !h

let fnv_float h f =
  let bits = Int64.bits_of_float f in
  let lo = Int64.to_int bits land 0xFFFF_FFFF in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) in
  fnv_bytes (fnv_bytes h lo 4) hi 4

let fnv ~key ~owner ~size ~exec_time ~created ~expires =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length key - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get key i))
  done;
  let h = fnv_bytes !h (String.length key) 8 in
  let h = fnv_bytes h owner 8 in
  let h = fnv_bytes h size 8 in
  let h = fnv_float h exec_time in
  let h = fnv_float h created in
  match expires with
  | None -> fnv_byte h 0
  | Some e -> fnv_float (fnv_byte h 1) e

let make ~key ~owner ~size ~exec_time ~created ~expires =
  if size < 0 then invalid_arg "Meta.make: negative size";
  if exec_time < 0. then invalid_arg "Meta.make: negative exec_time";
  {
    key;
    owner;
    size;
    exec_time;
    created;
    expires;
    hash = fnv ~key ~owner ~size ~exec_time ~created ~expires;
  }

let expired t ~now = match t.expires with Some e -> now >= e | None -> false
let cost t = t.exec_time
let age t ~now = now -. t.created

let pp ppf t =
  Format.fprintf ppf "%s@@node%d (%d B, exec %.3fs)" t.key t.owner t.size
    t.exec_time
