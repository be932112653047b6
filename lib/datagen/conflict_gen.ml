open Geacc_util
open Geacc_core

let nth_pair ~n k =
  assert (0 <= k && k < n * (n - 1) / 2);
  let rec row v k =
    let row_len = n - 1 - v in
    if k < row_len then (v, v + 1 + k) else row (v + 1) (k - row_len)
  in
  row 0 k

let random rng ~n_events ~ratio =
  if not (ratio >= 0. && ratio <= 1.) then
    invalid_arg "Conflict_gen.random: ratio outside [0,1]";
  let cf = Conflict.create ~n_events in
  if n_events >= 2 && ratio > 0. then begin
    let total = n_events * (n_events - 1) / 2 in
    let wanted =
      Stdlib.min total (int_of_float (Float.round (ratio *. float_of_int total)))
    in
    let chosen = Rng.sample_without_replacement rng wanted total in
    Array.iter
      (fun k ->
        let v, w = nth_pair ~n:n_events k in
        Conflict.add cf v w)
      chosen
  end;
  cf
