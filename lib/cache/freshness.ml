(* Per-key adaptive freshness controller.

   The paper expires every cached CGI result after one fixed TTL, but its
   own premise — results are expensive to regenerate and go stale at
   different rates — argues for per-key control, the trade-off formalised
   in "An Optimal Trade-off between Content Freshness and Refresh Cost"
   (PAPERS.md). This module implements the controller: it observes, per
   cache key, the access rate (a Rate counter, the estimator Hotspot also
   uses), the recompute rate (EWMA of the gap between successive inserts
   of the key) and the recompute cost (EWMA of the measured CGI execution
   time), and picks the TTL minimising the steady-state cost rate

     J(T) = penalty * lambda * T / 2  +  cost / T

   where [lambda] is the observed access rate. The first term is the
   staleness risk: each of the [lambda] accesses per second serves a
   result whose expected age under TTL [T] is [T/2], weighted by the
   administrator's [penalty] (staleness-seconds are worth [penalty]
   seconds of CPU). The second is the refresh cost rate: one [cost]-
   second recomputation every [T] seconds. Setting dJ/dT = 0 gives

     T* = sqrt (2 * cost / (penalty * lambda))

   clamped to [min_ttl, max_ttl]. Hot keys age fast in hit-weighted
   staleness, so they get short TTLs; cold expensive keys get long ones —
   exactly the allocation no single fixed TTL can make. T* is monotone:
   nondecreasing in [cost], nonincreasing in [lambda] and [penalty]
   (property-tested in test/test_freshness.ml).

   The controller is pure host-side bookkeeping: it never blocks, charges
   no simulated cost and draws no randomness, so attaching it perturbs
   nothing but the TTLs it emits. *)

type mode = Fixed | Adaptive

let mode_to_string = function Fixed -> "fixed" | Adaptive -> "adaptive"

(* EWMA weight for the per-key gap and cost trackers: heavy enough to
   smooth lognormal demand draws, light enough to track a regime change
   within a handful of recomputations. *)
let ewma_alpha = 0.3

type key_state = {
  accesses : Rate.t;
  (* recompute tracking *)
  mutable last_insert : float option;
  mutable gap_ewma : float option;  (* mean seconds between inserts *)
  mutable cost_ewma : float option;  (* mean recompute cost, seconds *)
  mutable inserts : int;
}

type t = {
  min_ttl : float;
  max_ttl : float;
  penalty : float;
  window : Rate.window;
  keys : (string, key_state) Hashtbl.t;
}

let create ~min_ttl ~max_ttl ~penalty ~window () =
  if min_ttl <= 0. then invalid_arg "Freshness.create: min_ttl must be positive";
  if max_ttl < min_ttl then
    invalid_arg "Freshness.create: max_ttl must be >= min_ttl";
  if penalty <= 0. then
    invalid_arg "Freshness.create: penalty must be positive";
  if window <= 0. then invalid_arg "Freshness.create: window must be positive";
  {
    min_ttl;
    max_ttl;
    penalty;
    window = Rate.window window;
    keys = Hashtbl.create 256;
  }

let state t ~now key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
      let s =
        {
          accesses = Rate.create ~now;
          last_insert = None;
          gap_ewma = None;
          cost_ewma = None;
          inserts = 0;
        }
      in
      Hashtbl.replace t.keys key s;
      s

let observe_access t ~now key =
  let s = state t ~now key in
  Rate.note t.window s.accesses ~now

let observe_insert t ~now ~cost key =
  let s = state t ~now key in
  (match s.last_insert with
  | Some prev when now > prev ->
      let gap = now -. prev in
      s.gap_ewma <-
        Some
          (match s.gap_ewma with
          | None -> gap
          | Some g -> ((1. -. ewma_alpha) *. g) +. (ewma_alpha *. gap))
  | Some _ | None -> ());
  s.last_insert <- Some now;
  s.cost_ewma <-
    Some
      (match s.cost_ewma with
      | None -> cost
      | Some c -> ((1. -. ewma_alpha) *. c) +. (ewma_alpha *. cost));
  s.inserts <- s.inserts + 1

let update_interval t key =
  match Hashtbl.find_opt t.keys key with None -> None | Some s -> s.gap_ewma

let clamp t v = Float.min t.max_ttl (Float.max t.min_ttl v)

let ttl t ~now ~cost key =
  let s = state t ~now key in
  (* Smooth the (possibly lognormal) per-execution cost draw with the
     key's history, so one tail draw does not whipsaw the TTL. *)
  let c =
    Float.max 1e-9
      (match s.cost_ewma with
      | Some hist -> ((1. -. ewma_alpha) *. hist) +. (ewma_alpha *. cost)
      | None -> cost)
  in
  (* The access triggering this very recomputation is evidence of at
     least one access per window, so the rate is floored there; without
     the floor a first-seen key would get max_ttl unconditionally. *)
  let lambda =
    Float.max (1. /. Rate.width t.window) (Rate.rate t.window s.accesses ~now)
  in
  clamp t (sqrt (2. *. c /. (t.penalty *. lambda)))

(* Rule overrides beat per-script TTLs beat the server-wide layer — the
   administrator's configuration-file precedence (§4.1), shared by the
   fixed and adaptive paths and property-tested directly. *)
let effective_ttl ~rule ~script ~default =
  match rule with
  | Some _ as ttl -> ttl
  | None -> ( match script with Some _ as ttl -> ttl | None -> default)

(* Garbage-collect key states that have gone fully cold — no access in a
   full window and no insert either — so the tracker's memory follows the
   working set, like Hotspot.sweep. *)
let sweep t ~now =
  let dead =
    Hashtbl.fold
      (fun key s acc ->
        let cold_insert =
          match s.last_insert with
          | None -> true
          | Some at -> now -. at >= 2. *. Rate.width t.window
        in
        (* [quiet] rolls the buckets to [now] first: a fully-out-of-window
           state zeroes both counts, leaving stale counts in place would
           keep every once-accessed key alive forever. *)
        if Rate.quiet t.window s.accesses ~now && cold_insert then key :: acc
        else acc)
      t.keys []
  in
  List.iter (Hashtbl.remove t.keys) dead;
  List.length dead

let clear t = Hashtbl.reset t.keys
let tracked t = Hashtbl.length t.keys
let min_ttl t = t.min_ttl
let max_ttl t = t.max_ttl
