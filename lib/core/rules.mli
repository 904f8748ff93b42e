(** Administrator cacheability rules (paper §4.1).

    "Swala uses a configuration file, loaded at startup, to provide the
    system administrator with a flexible way to control which requests are
    cache-able." This module implements that file. One directive per line:

    {v
    # comments and blank lines are ignored
    cache   /cgi-bin/query  ttl=3600  threshold=0.5
    cache   /cgi-bin/
    nocache /cgi-bin/private
    default cache
    default-ttl 600
    default-threshold 0.1
    v}

    [cache]/[nocache] directives apply to the longest matching path prefix;
    [ttl] (seconds) and [threshold] (minimum execution seconds worth
    caching) may be attached to a [cache] directive and override the
    script- and server-level settings for matching requests. [default]
    ([cache] or [nocache]) decides paths no rule matches (default:
    [cache], i.e. defer to the script's own flag). *)

type decision = {
  cacheable : bool;
  ttl : float option;  (** per-rule TTL override, if any *)
  threshold : float option;  (** per-rule threshold override, if any *)
}

type t

(** [empty] defers everything to script flags and server defaults. *)
val empty : t

(** [parse text] reads a whole configuration file. Errors carry the
    offending line number. *)
val parse : string -> (t, string) result

(** [load path] is {!parse} over a file's contents; a file that cannot
    be read is an [Error] too. *)
val load : string -> (t, string) result

(** [decide t path] applies the longest-prefix rule. *)
val decide : t -> string -> decision

(** [rule_count t] is the number of explicit directives. *)
val rule_count : t -> int

(** [to_string t] serialises back to the file format (normalised). *)
val to_string : t -> string
