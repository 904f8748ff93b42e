let uniform rng lo hi = Rng.range rng lo hi

let exponential rng ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  let u = 1. -. Rng.float rng in
  -.mean *. log u

let normal rng ~mu ~sigma =
  let u1 = 1. -. Rng.float rng in
  let u2 = Rng.float rng in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mu ~sigma)

let lognormal_mean_cv rng ~mean ~cv =
  if mean <= 0. then invalid_arg "Dist.lognormal_mean_cv: mean must be positive";
  if cv < 0. then invalid_arg "Dist.lognormal_mean_cv: cv must be non-negative";
  if cv = 0. then mean
  else
    let sigma2 = log (1. +. (cv *. cv)) in
    let mu = log mean -. (sigma2 /. 2.) in
    lognormal rng ~mu ~sigma:(sqrt sigma2)

module Discrete = struct
  type t = { cdf : float array }

  let make weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Discrete.make: empty weights";
    Array.iter
      (fun w -> if w < 0. then invalid_arg "Discrete.make: negative weight")
      weights;
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. weights.(i);
      cdf.(i) <- !acc
    done;
    if !acc <= 0. then invalid_arg "Discrete.make: weights sum to zero";
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. !acc
    done;
    { cdf }

  (* Binary search for the first index whose cumulative mass covers [u]. *)
  let draw t rng =
    let u = Rng.float rng in
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo
end

let zipf ~n ~s =
  if n < 1 then invalid_arg "Dist.zipf: n must be >= 1";
  Discrete.make (Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)))
