(* The benchmark's own random source: SplitMix64 and a table-driven Zipf
   sampler. Op streams must not move when the program's own generators
   change, so nothing here touches Sim.Rng or Locus.Zipf. *)

type t = { mutable s : int64 }

let create seed = { s = seed }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, bound). *)
let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(* Uniform in [0, 1) with 53 random bits. *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

(* Zipf over ranks [0, n): rank r has weight 1 / (r + 1)^s. *)
type zipf = float array (* cumulative distribution, last cell = 1.0 *)

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  let cdf = Array.init n (fun r -> 1.0 /. Float.pow (float_of_int (r + 1)) s) in
  for r = 1 to n - 1 do
    cdf.(r) <- cdf.(r) +. cdf.(r - 1)
  done;
  let total = cdf.(n - 1) in
  Array.map_inplace (fun c -> c /. total) cdf;
  cdf.(n - 1) <- 1.0;
  cdf

(* Smallest rank whose cumulative weight exceeds a uniform draw. *)
let sample (cdf : zipf) t =
  let u = float t in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
