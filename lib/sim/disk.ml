type t = {
  seek : float;
  bandwidth : float;
  mem_bandwidth : float;
  arm : Rwlock.t;  (* taken only for writing: one transfer at a time *)
}

let create ?(seek = 0.008) ?(bandwidth = 8e6) ?(mem_bandwidth = 80e6) ?observe
    () =
  if bandwidth <= 0. || mem_bandwidth <= 0. then
    invalid_arg "Disk.create: bandwidth must be positive";
  {
    seek;
    bandwidth;
    mem_bandwidth;
    arm = Rwlock.create ?observe ();
  }

let read t ~bytes ~cached =
  if bytes < 0 then invalid_arg "Disk.read: negative size";
  if cached then Engine.delay (float_of_int bytes /. t.mem_bandwidth)
  else
    Rwlock.with_wr t.arm (fun () ->
        Engine.delay (t.seek +. (float_of_int bytes /. t.bandwidth)))
