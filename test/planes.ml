(* Typed access to a test cluster's metadata plane. *)

let replicated cluster =
  match Swala.Server.plane cluster with
  | Swala.Server.Replicated p -> p
  | Swala.Server.Local | Swala.Server.Sharded _ ->
      Alcotest.fail "expected the replicated metadata plane"

let sharded cluster =
  match Swala.Server.plane cluster with
  | Swala.Server.Sharded p -> p
  | Swala.Server.Local | Swala.Server.Replicated _ ->
      Alcotest.fail "expected the sharded metadata plane"

(* Node [i]'s directory replica. *)
let directory cluster i =
  Swala.Replicated_plane.directory (replicated cluster) i
