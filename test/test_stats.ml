(* Table/plot rendering tests. *)

let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  loop 0

let test_table_arity_checked () =
  let t = Repro_stats.Table.create ~headers:[ "a"; "b" ] in
  check_bool "arity mismatch rejected" true
    (try
       Repro_stats.Table.add_row t [ "only-one" ];
       false
     with Invalid_argument _ -> true)

let test_table_alignment () =
  let t = Repro_stats.Table.create ~headers:[ "op"; "us" ] in
  Repro_stats.Table.add_row t [ "x"; "1.00" ];
  Repro_stats.Table.add_row t [ "longer-name"; "123.45" ];
  let s = Repro_stats.Table.render t in
  (* Numeric cells right-aligned: "  1.00" has leading spaces. *)
  check_bool "right-aligned numerics" true (contains s "|   1.00 |")

let test_formatters () =
  Alcotest.(check string) "ms" "12.3" (Repro_stats.Table.ms_of_ns 12_345_678);
  Alcotest.(check string) "pct" "42.0%" (Repro_stats.Table.pct 42.0)

let test_plot_lines () =
  let s =
    Repro_stats.Plot.lines
      [ ("a", [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ]); ("b", [ (0.0, 4.0); (2.0, 0.0) ]) ]
  in
  check_bool "non-empty canvas" true (String.length s > 100);
  check_bool "legend lists both" true (contains s "* = a" && contains s "o = b")

let test_plot_empty () =
  Alcotest.(check string) "empty input, empty plot" "" (Repro_stats.Plot.lines [])

let test_plot_series () =
  let series = Engine.Series.create ~name:"waiting" () in
  for i = 0 to 99 do
    Engine.Series.add series ~t:(i * 1_000_000) ~v:(float_of_int (i mod 7))
  done;
  let s = Repro_stats.Plot.series series in
  check_bool "series plot renders" true (String.length s > 100);
  check_bool "named" true (contains s "waiting")

let suite =
  [
    Alcotest.test_case "table arity" `Quick test_table_arity_checked;
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "formatters" `Quick test_formatters;
    Alcotest.test_case "plot lines" `Quick test_plot_lines;
    Alcotest.test_case "plot empty" `Quick test_plot_empty;
    Alcotest.test_case "plot series" `Quick test_plot_series;
  ]
