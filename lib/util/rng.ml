type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 = next_int64

let split t =
  let seed = next_int64 t in
  (* Mix once more so that [split] streams differ from sequential output. *)
  { state = Int64.mul seed 0xD1342543DE82EF95L }

let bits30 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

let int t n =
  assert (n > 0);
  if n <= 1 lsl 30 then bits30 t mod n
  else
    (* 62 uniform bits for large ranges. *)
    let hi = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    hi mod n

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 bits of mantissa, uniform in [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits *. 0x1p-53

let float t x =
  assert (x > 0.);
  unit_float t *. x

let float_in t lo hi =
  assert (lo < hi);
  lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float t < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  assert (0 <= k && k <= n);
  if k = 0 then [||]
  else if 3 * k >= n then begin
    (* k is a large share of n: shuffle a full permutation prefix. *)
    let a = Array.init n (fun i -> i) in
    shuffle_in_place t a;
    Array.sub a 0 k
  end
  else begin
    (* k is a small share of n: rejection sampling into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let x = int t n in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end
