(* Order statistics for the benchmark's reports. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, [p] in [0, 100]. *)
let percentile p a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = percentile 50. a

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the spreads this
   benchmark reports are the ones its consumers compute. One sample
   gives zero spread. *)
let quartiles a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
