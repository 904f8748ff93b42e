type t = unit

(* Only this node can hold the key; its store decides. *)
let lookup () _ _ = Plane.Here
let stale () _ _ _ = ()
let insert () (nd : Node.t) meta body =
  Cache.Store.insert_body nd.store meta body
let announce () _ _ ~evicted:_ = ()
let delete () _ _ = ()
let unreachable () _ ~owner:_ _ = ()
let false_hit () _ _ = ()
let crash () _ = ()
let handoff () ?died:_ () = ()
let start () _ = ()
let entries () _ = 0
let lock_acquisitions () _ = (0, 0)
let backlog () _ = 0
let record_stats () = ()
