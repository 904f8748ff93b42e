(** A node's protocol endpoints: the mailboxes its cacher-module daemons
    listen on, plus its network address. The info receiver's mailbox is
    not here: its type is the metadata plane's own update type, so each
    plane allocates it. *)

type t = {
  node : int;  (** node id; doubles as the network endpoint id *)
  data_mb : Msg.fetch_request Sim.Mailbox.t;  (** consumed by the data server *)
  sync_mb : Msg.sync_request Sim.Mailbox.t;
      (** consumed by the anti-entropy responder *)
  lookup_mb : Msg.lookup_request Sim.Mailbox.t;
      (** consumed by the sharded plane's lookup server *)
}

(** [make ~node] allocates fresh mailboxes for [node]'s daemons. *)
val make : node:int -> t

(** [backlog t] is the total number of messages queued across the three
    daemon mailboxes — an O(1) read for the flight recorder's
    protocol-backlog probe. *)
val backlog : t -> int
