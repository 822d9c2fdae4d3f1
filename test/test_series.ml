(* Time-series tests. *)

let make samples =
  let s = Engine.Series.create ~name:"s" () in
  List.iter (fun (t, v) -> Engine.Series.add s ~t ~v) samples;
  s

let test_empty () =
  let s = make [] in
  Alcotest.(check int) "length" 0 (Engine.Series.length s);
  Alcotest.(check bool) "no max" true (Engine.Series.max_value s = None);
  Alcotest.(check bool) "no mean" true (Engine.Series.time_weighted_mean s = None);
  Alcotest.(check string) "header only" "time,s\n" (Engine.Series.csv_string [ s ])

let test_append_and_get () =
  let s = make [ (0, 1.0); (5, 2.0); (9, 4.0) ] in
  Alcotest.(check int) "length" 3 (Engine.Series.length s);
  Alcotest.(check string) "samples in order" "time,s\n0,1\n5,2\n9,4\n"
    (Engine.Series.csv_string [ s ])

let test_monotonic_enforced () =
  let s = make [ (10, 1.0) ] in
  Alcotest.check_raises "decreasing time rejected"
    (Invalid_argument "Series.add: timestamps must be non-decreasing") (fun () ->
      Engine.Series.add s ~t:5 ~v:0.0)

let test_equal_times_allowed () =
  let s = make [ (3, 1.0); (3, 2.0) ] in
  Alcotest.(check int) "both kept" 2 (Engine.Series.length s)

let test_min_max_mean () =
  (* One timestamp: the time-weighted mean is the plain mean. *)
  let s = make [ (0, 3.0); (0, 1.0); (0, 8.0) ] in
  Alcotest.(check bool) "max" true (Engine.Series.max_value s = Some 8.0);
  Alcotest.(check bool) "mean" true (Engine.Series.time_weighted_mean s = Some 4.0)

let test_time_weighted_mean () =
  (* value 0 for 10 units then 10 for 10 units: weighted mean of the
     step function over [0,20] using left values = (0*10 + 10*10)/20 = 5.
     Samples: (0,0) (10,10) (20,10). *)
  let s = make [ (0, 0.0); (10, 10.0); (20, 10.0) ] in
  match Engine.Series.time_weighted_mean s with
  | Some m -> Alcotest.(check (float 0.001)) "weighted" 5.0 m
  | None -> Alcotest.fail "expected a mean"

let test_resample_reduces () =
  let s = make (List.init 100 (fun i -> (i * 10, float_of_int (i mod 5)))) in
  let r = Engine.Series.resample s ~buckets:10 in
  Alcotest.(check int) "bucket count" 10 (Array.length r);
  Array.iter (fun (_, v) -> if v < 0.0 || v > 4.0 then Alcotest.fail "out of range") r

let test_resample_empty () =
  let s = make [] in
  Alcotest.(check int) "empty stays empty" 0
    (Array.length (Engine.Series.resample s ~buckets:5))

let test_csv_output () =
  let a = make [ (0, 1.0); (10, 2.5) ] in
  let b =
    let s = Engine.Series.create ~name:"b" () in
    Engine.Series.add s ~t:5 ~v:0.125;
    s
  in
  Alcotest.(check string) "one row per distinct time, values carried forward"
    "time,s,b\n0,1,\n5,1,0.125\n10,2.5,0.125\n"
    (Engine.Series.csv_string [ a; b ])

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "append/get" `Quick test_append_and_get;
    Alcotest.test_case "monotonic enforced" `Quick test_monotonic_enforced;
    Alcotest.test_case "equal times" `Quick test_equal_times_allowed;
    Alcotest.test_case "min/max/mean" `Quick test_min_max_mean;
    Alcotest.test_case "time-weighted mean" `Quick test_time_weighted_mean;
    Alcotest.test_case "resample" `Quick test_resample_reduces;
    Alcotest.test_case "resample empty" `Quick test_resample_empty;
    Alcotest.test_case "csv output" `Quick test_csv_output;
  ]
