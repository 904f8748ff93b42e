(** The metadata plane: how a node learns which peer caches a result,
    and how it tells its peers what it caches. {!Server} runs the rest of
    Figure 2 the same way over any plane; [Server.create_cluster] picks
    {!Local_plane}, {!Replicated_plane} or {!Sharded_plane} once per
    cluster. docs/METADATA_PLANE.md compares them and says what a new
    plane must implement. *)

(** Figure 2's directory answer for one key. *)
type verdict =
  | Absent  (** no node is known to cache it: execute locally *)
  | Here  (** this node's own tables name it as the owner *)
  | Told_here  (** a peer's tables named this node as the owner *)
  | At of int  (** that peer caches it: fetch from there *)

module type S = sig
  (** Every node's plane state. *)
  type t

  (** [lookup p nd key] answers who caches [key], for a request on [nd].
      It may block (locks, forwarded lookups). After [Here] or [Told_here]
      the caller reads its store and, on a miss, calls [stale] before it
      does anything else. *)
  val lookup : t -> Node.t -> string -> verdict

  (** [stale p nd key v]: [lookup] answered [v] but [nd]'s store no longer
      holds [key]; repair the plane's own tables. *)
  val stale : t -> Node.t -> string -> verdict -> unit

  (** [insert p nd meta body] stores a fresh result in [nd]'s store and
      does the plane's local bookkeeping, evictions included. Returns the
      evicted entries, which [announce] reports. *)
  val insert : t -> Node.t -> Cache.Meta.t -> Http.Body.t -> Cache.Meta.t list

  (** [announce p nd meta ~evicted] originates the updates an [insert]
      implies: a delete per evicted entry, then the insert. *)
  val announce :
    t -> Node.t -> Cache.Meta.t -> evicted:Cache.Meta.t list -> unit

  (** [delete p nd key]: a purge or an invalidation removed [key] from
      [nd]'s store. Update the plane's tables and announce it. *)
  val delete : t -> Node.t -> string -> unit

  (** [unreachable p nd ~owner key]: a fetch of [key] from [owner] used up
      every retry, so [owner] is suspect, whatever made it time out. *)
  val unreachable : t -> Node.t -> owner:int -> string -> unit

  (** [false_hit p nd key]: the owner [lookup] named no longer had [key]. *)
  val false_hit : t -> Node.t -> string -> unit

  (** [crash p nd] wipes [nd]'s plane state (fail-stop; no locks, no
      simulated charges). *)
  val crash : t -> Node.t -> unit

  (** [handoff p ?died ()] reacts to a liveness change: a crash of node
      [died], a restart or a partition heal. Event context: it may only
      spawn processes. *)
  val handoff : t -> ?died:int -> unit -> unit

  (** [start p nd] spawns [nd]'s plane daemons. *)
  val start : t -> Node.t -> unit

  (** End-of-run and telemetry reads, per node: metadata footprint in
      entries, cumulative (read, write) lock acquisitions, and messages
      queued for the plane's daemons: info updates and its own requests. *)
  val entries : t -> int -> int
  val lock_acquisitions : t -> int -> int * int
  val backlog : t -> int -> int

  (** [record_stats p] folds the plane's host-side statistics (hint or
      lookup-cache outcomes) into the node counters, once, after the run;
      counters stay absent when zero. *)
  val record_stats : t -> unit
end
