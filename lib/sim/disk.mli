(** Simple FIFO disk model: one request at a time, service time =
    [seek + bytes / bandwidth]. The cache stores each CGI result in its own
    file (paper §4.1), but on a UNIX box a recently used file is served from
    the OS buffer cache; callers model that by passing [~cached:true], which
    skips the seek and uses memory bandwidth instead. *)

type t

val create :
  ?seek:float ->
  ?bandwidth:float ->
  ?mem_bandwidth:float ->
  ?observe:(kind:[ `Read | `Write ] -> wait:float -> depth:int -> unit) ->
  unit ->
  t
(** Defaults approximate a late-90s workstation disk: [seek = 8ms],
    [bandwidth = 8 MB/s], [mem_bandwidth = 80 MB/s]. [observe] is passed
    to the disk arm, a lock only ever taken for writing (see
    {!Rwlock.create}): one [`Write] observation per uncached access, with
    the time spent queued for the arm. *)

(** [read d ~bytes ~cached] blocks the calling process for the transfer.
    Uncached reads serialise through the disk; buffer-cache reads do not. *)
val read : t -> bytes:int -> cached:bool -> unit
