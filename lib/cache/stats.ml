type t = {
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable expirations : int;
  mutable bytes_stored : int;
}

let create () =
  {
    hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
    expirations = 0;
    bytes_stored = 0;
  }

let hit_ratio t =
  let lookups = t.hits + t.misses in
  if lookups = 0 then 0. else float_of_int t.hits /. float_of_int lookups

let merge a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    inserts = a.inserts + b.inserts;
    evictions = a.evictions + b.evictions;
    expirations = a.expirations + b.expirations;
    bytes_stored = a.bytes_stored + b.bytes_stored;
  }
