(* RNG tests: determinism, ranges, distribution sanity. *)

(* A draw over (almost) the whole 62-bit range. *)
let draw r = Engine.Rng.int r max_int

let test_determinism () =
  let a = Engine.Rng.create 42 and b = Engine.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_seeds_differ () =
  let a = Engine.Rng.create 1 and b = Engine.Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true
    (draw a <> draw b)

let test_int_range () =
  let r = Engine.Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_int_in_range () =
  let r = Engine.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_int_rejects_bad_bound () =
  let r = Engine.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Engine.Rng.int r 0))

let test_float_range () =
  let r = Engine.Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Engine.Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_uniformity_rough () =
  (* chi-square-ish sanity: each of 10 buckets within 20% of expected. *)
  let r = Engine.Rng.create 17 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Engine.Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d suspicious: %d vs %d" i c expected)
    buckets

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int_in range" `Quick test_int_in_range;
    Alcotest.test_case "bad bound rejected" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
  ]
