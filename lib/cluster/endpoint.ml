type t = {
  node : int;
  data_mb : Msg.fetch_request Sim.Mailbox.t;
  sync_mb : Msg.sync_request Sim.Mailbox.t;
  lookup_mb : Msg.lookup_request Sim.Mailbox.t;
}

let make ~node =
  {
    node;
    data_mb = Sim.Mailbox.create ();
    sync_mb = Sim.Mailbox.create ();
    lookup_mb = Sim.Mailbox.create ();
  }

let backlog t =
  Sim.Mailbox.length t.data_mb
  + Sim.Mailbox.length t.sync_mb
  + Sim.Mailbox.length t.lookup_mb
