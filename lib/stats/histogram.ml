type t = {
  counts : int array;
  bounds : int array;  (* upper bound of each bucket *)
  mutable n : int;
  mutable sum : int;
  mutable max_v : int;
}

let create () =
  let min_value = 100 and max_value = 10_000_000_000 and buckets_per_decade = 8 in
  let decades = log10 (float_of_int max_value /. float_of_int min_value) in
  let nbuckets = max 1 (int_of_float (ceil (decades *. float_of_int buckets_per_decade))) in
  let ratio = 10.0 ** (1.0 /. float_of_int buckets_per_decade) in
  let bounds =
    Array.init nbuckets (fun i ->
        int_of_float (float_of_int min_value *. (ratio ** float_of_int (i + 1))))
  in
  { counts = Array.make nbuckets 0; bounds; n = 0; sum = 0; max_v = 0 }

let bucket_of t v =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if v <= t.bounds.(mid) then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (Array.length t.bounds - 1)

let add t v =
  let v = max 0 v in
  let b = bucket_of t v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v

let mean t = float_of_int t.sum /. float_of_int t.n

(* The upper bound of the bucket holding rank [p]% (capped at the
   largest sample); [t] is non-empty. *)
let percentile t p =
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let rec walk i seen =
    if i >= Array.length t.counts then t.max_v
    else begin
      let seen = seen + t.counts.(i) in
      if seen >= rank then min t.bounds.(i) t.max_v else walk (i + 1) seen
    end
  in
  walk 0 0

let summary t =
  if t.n = 0 then "no samples"
  else
    Printf.sprintf "n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus" t.n
      (mean t /. 1000.0)
      (float_of_int (percentile t 50.0) /. 1000.0)
      (float_of_int (percentile t 90.0) /. 1000.0)
      (float_of_int (percentile t 99.0) /. 1000.0)
      (float_of_int t.max_v /. 1000.0)
