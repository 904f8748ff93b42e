type 'u info_envelope = {
  info : 'u;
  ack : (int * unit Sim.Mailbox.t) option;
  span : int;
}

type fetch_reply =
  | Hit of { meta : Cache.Meta.t; body : Http.Body.t }
  | Miss of { key : string }

type fetch_request = {
  key : string;
  requester : int;
  reply : fetch_reply Sim.Mailbox.t;
  span : int;
}

type lookup_reply = Found of Cache.Meta.t | Absent of { key : string }

type lookup_request = {
  lkey : string;
  lrequester : int;
  lreply : lookup_reply Sim.Mailbox.t;
  lspan : int;
}

type digest = { n_entries : int; hash : int }

type sync_reply = { tables : (int * Cache.Meta.t list) list }

type sync_request = {
  from_node : int;
  digests : digest array;
  sync_reply : sync_reply Sim.Mailbox.t;
  span : int;
}

(* Wire-size estimates: key text plus a fixed envelope. *)
let envelope = 64

module Replicated = struct
  type one = [ `One ]
  type any = [ `Any ]

  type _ t =
    | Insert : Cache.Meta.t -> 'k t
    | Delete : { node : int; key : string } -> 'k t
    | Batch : one t list -> any t

  (* Per-update payload, without the envelope. A batch shares one
     envelope across its updates; each update then costs a 12-byte
     sub-header plus its body, so [bytes] amortizes the fixed cost. *)
  let rec body : type k. k t -> int = function
    | Insert meta -> String.length meta.Cache.Meta.key + 40
    | Delete { key; _ } -> String.length key
    | Batch updates ->
        List.fold_left (fun acc u -> acc + 12 + body u) 0 updates

  let bytes u = envelope + body u

  let updates : type k. k t -> int = function
    | Insert _ | Delete _ -> 1
    | Batch l -> List.length l
end

module Sharded = struct
  type t =
    | Insert of Cache.Meta.t
    | Delete of { node : int; key : string }
    | Promote of Cache.Meta.t
    | Demote of { key : string }

  let bytes = function
    | Insert meta | Promote meta ->
        envelope + String.length meta.Cache.Meta.key + 40
    | Delete { key; _ } | Demote { key } -> envelope + String.length key

  let key = function
    | Insert m | Promote m -> m.Cache.Meta.key
    | Delete { key; _ } | Demote { key } -> key
end

let fetch_request_bytes { key; _ } = envelope + String.length key

let lookup_request_bytes { lkey; _ } = envelope + String.length lkey

let lookup_reply_bytes = function
  | Found meta -> envelope + String.length meta.Cache.Meta.key + 40
  | Absent { key } -> envelope + String.length key

let fetch_reply_bytes = function
  | Hit { meta; body } ->
      envelope + String.length meta.Cache.Meta.key + Http.Body.length body
  | Miss { key } -> envelope + String.length key

let sync_request_bytes { digests; _ } = envelope + (12 * Array.length digests)

let sync_reply_bytes { tables } =
  List.fold_left
    (fun acc (_, metas) ->
      List.fold_left
        (fun acc (m : Cache.Meta.t) ->
          acc + 40 + String.length m.Cache.Meta.key)
        (acc + 8) metas)
    envelope tables
