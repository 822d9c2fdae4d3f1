(* Counter-bag tests. *)

let test_basics () =
  let c = Engine.Counters.create () in
  Alcotest.(check int) "unset reads zero" 0 (Engine.Counters.get c "x");
  Engine.Counters.incr c "x";
  Engine.Counters.incr c "x";
  Alcotest.(check int) "incremented" 2 (Engine.Counters.get c "x");
  let x = Engine.Counters.cell c "x" in
  x := !x - 5;
  Alcotest.(check int) "cell is the counter" (-3) (Engine.Counters.get c "x");
  Engine.Counters.cell c "y" := 9;
  Alcotest.(check int) "fresh cell" 9 (Engine.Counters.get c "y")

let test_to_list_sorted () =
  let c = Engine.Counters.create () in
  List.iter (Engine.Counters.incr c) [ "zebra"; "ant"; "mole" ];
  Alcotest.(check (list string)) "sorted names" [ "ant"; "mole"; "zebra" ]
    (List.map fst (Engine.Counters.to_list c))

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "sorted listing" `Quick test_to_list_sorted;
  ]
