type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  sum : float;
}

let create () : t =
  { count = 0; mean = 0.; m2 = 0.; min = nan; max = nan; sum = 0. }

let add (t : t) x =
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.count = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let add_seq t seq = Seq.iter (add t) seq

let count (t : t) = t.count
let mean (t : t) = if t.count = 0 then nan else t.mean

let stddev (t : t) =
  if t.count < 2 then 0. else sqrt (t.m2 /. float_of_int (t.count - 1))

let min (t : t) = t.min
let max (t : t) = t.max
let sum (t : t) = t.sum

let summarize (t : t) : summary =
  {
    count = t.count;
    mean = mean t;
    stddev = stddev t;
    min = t.min;
    max = t.max;
    sum = t.sum;
  }

let of_array a =
  let t = create () in
  Array.iter (add t) a;
  summarize t
