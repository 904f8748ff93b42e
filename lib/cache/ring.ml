(* Consistent-hash ring with virtual nodes.

   The ring is a static, immutable structure shared by every node of a
   cluster: [nodes * vnodes] points on a 58-bit hash circle, each point
   claiming the arc that ends at it. A key's home is the physical node
   owning the first point at or clockwise after the key's hash. Liveness
   is *not* baked into the ring — crash handoff is expressed by walking
   the distinct-successor order and skipping nodes the caller reports
   down, so the mapping needs no rebuild on membership churn and every
   node computes the same answer from the same liveness view. *)

type t = {
  hashes : int array;  (* the points' hashes, ascending *)
  owners : int array;  (* owners.(i) is the node of point i *)
  nodes : int;
}

(* FNV-1a, folded to 58 bits so the arithmetic stays in OCaml's tagged
   int range on 64-bit platforms. Stable across runs and processes,
   unlike the polymorphic [Hashtbl.hash] contract. *)
let fnv_byte h b = (h lxor b) * 0x01000193 land 0x3FFFFFFFFFFFFFF
let fnv_basis = 0x811c9dc5

let fnv1a s =
  let h = ref fnv_basis in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* [fnv_byte] fed the decimal digits of [n >= 0], most significant
   first: the bytes [string_of_int n] would give. *)
let rec fnv_decimal h n =
  let h = if n >= 10 then fnv_decimal h (n / 10) else h in
  fnv_byte h (Char.code '0' + (n mod 10))

(* [fnv1a (Printf.sprintf "vn:%d:%d" n v)], without building the
   string. *)
let point_hash n v =
  let byte h c = fnv_byte h (Char.code c) in
  let h = byte (byte (byte fnv_basis 'v') 'n') ':' in
  fnv_decimal (byte (fnv_decimal h n) ':') v

let create ~nodes ~vnodes =
  if nodes < 1 then invalid_arg "Ring.create: nodes must be >= 1";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let n_points = nodes * vnodes in
  (* Point [i] is vnode [i mod vnodes] of node [i / vnodes]. *)
  let hash_of =
    Array.init n_points (fun i -> point_hash (i / vnodes) (i mod vnodes))
  in
  let order = Array.init n_points Fun.id in
  (* Ties between points are broken by node id so the sort — and hence
     every ownership decision — is deterministic. Point indices grow
     with the node id, so they break the tie the same way. *)
  Array.stable_sort
    (fun i j ->
      let c = Int.compare hash_of.(i) hash_of.(j) in
      if c <> 0 then c else Int.compare i j)
    order;
  {
    hashes = Array.map (fun i -> hash_of.(i)) order;
    owners = Array.map (fun i -> i / vnodes) order;
    nodes;
  }

(* Index of the first point with hash >= h, wrapping to 0 past the end. *)
let first_at_or_after t h =
  let hashes = t.hashes in
  let n = Array.length hashes in
  if h > hashes.(n - 1) then 0
  else begin
    (* Binary search for the leftmost point with hash >= h. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if hashes.(mid) >= h then hi := mid else lo := mid + 1
    done;
    !lo
  end

let owner t key =
  t.owners.(first_at_or_after t (fnv1a key))

(* Walk the ring clockwise from the key's point, collecting the first [k]
   distinct physical nodes. The walk touches each point at most once, so
   it terminates even when [k > nodes] (the result is then every node, in
   successor order). *)
let successors t key ~k =
  if k < 1 then invalid_arg "Ring.successors: k must be >= 1";
  let n = Array.length t.owners in
  let start = first_at_or_after t (fnv1a key) in
  let seen = Array.make t.nodes false in
  let out = ref [] in
  let found = ref 0 in
  let i = ref 0 in
  while !found < k && !i < n do
    let node = t.owners.((start + !i) mod n) in
    if not seen.(node) then begin
      seen.(node) <- true;
      out := node :: !out;
      incr found
    end;
    incr i
  done;
  List.rev !out

(* The walk past down nodes; [seen] marks the down nodes already asked
   about, so [up] is consulted once per distinct node. *)
let rec walk_up t ~up ~start ~seen i =
  let n = Array.length t.owners in
  if i >= n then None
  else
    let node = t.owners.((start + i) mod n) in
    if seen.(node) then walk_up t ~up ~start ~seen (i + 1)
    else if up node then Some node
    else begin
      seen.(node) <- true;
      walk_up t ~up ~start ~seen (i + 1)
    end

(* The primary owner answers without allocating; the [nodes]-sized
   [seen] set is only built once the walk has passed a down node. *)
let acting_owner t ~up key =
  let start = first_at_or_after t (fnv1a key) in
  let primary = t.owners.(start) in
  if up primary then Some primary
  else begin
    let seen = Array.make t.nodes false in
    seen.(primary) <- true;
    walk_up t ~up ~start ~seen 1
  end

let spread t ~keys =
  let counts = Array.make t.nodes 0 in
  List.iter (fun k -> counts.(owner t k) <- counts.(owner t k) + 1) keys;
  counts
