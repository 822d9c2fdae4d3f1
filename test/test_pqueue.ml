(* Priority-queue tests: ordering, FIFO stability, growth, the
   allocation-lean exn pop path, and a qcheck model-based property. *)

let check_int = Alcotest.(check int)

(* Pop everything, in priority order. *)
let drain q =
  let rec loop acc =
    match Engine.Pqueue.pop_min q with None -> List.rev acc | Some e -> loop (e :: acc)
  in
  loop []

let test_empty () =
  let q = Engine.Pqueue.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Engine.Pqueue.is_empty q);
  check_int "no min key" max_int (Engine.Pqueue.peek_min_key q);
  Alcotest.(check bool) "pop of empty" true (Engine.Pqueue.pop_min q = None)

let test_ordering () =
  let q = Engine.Pqueue.create ~dummy:0 () in
  List.iter (fun k -> Engine.Pqueue.add q ~key:k k) [ 5; 3; 9; 1; 7; 2 ];
  let popped = List.map fst (drain q) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 9 ] popped

let test_fifo_ties () =
  let q = Engine.Pqueue.create ~dummy:"" () in
  Engine.Pqueue.add q ~key:4 "a";
  Engine.Pqueue.add q ~key:4 "b";
  Engine.Pqueue.add q ~key:4 "c";
  Engine.Pqueue.add q ~key:2 "z";
  let popped = List.map snd (drain q) in
  Alcotest.(check (list string)) "insertion order on ties" [ "z"; "a"; "b"; "c" ] popped

let test_fifo_ties_across_pops () =
  (* FIFO stability must survive interleaved pops: equal keys added
     around a pop still come out oldest first. *)
  let q = Engine.Pqueue.create ~dummy:"" () in
  Engine.Pqueue.add q ~key:7 "first";
  Engine.Pqueue.add q ~key:7 "second";
  Engine.Pqueue.add q ~key:1 "low";
  Alcotest.(check string) "low first" "low" (Engine.Pqueue.pop_min_value_exn q);
  Engine.Pqueue.add q ~key:7 "third";
  let popped = List.map snd (drain q) in
  Alcotest.(check (list string)) "ties stay FIFO" [ "first"; "second"; "third" ] popped

let test_growth () =
  let q = Engine.Pqueue.create ~dummy:0 () in
  for i = 1000 downto 1 do
    Engine.Pqueue.add q ~key:i i
  done;
  check_int "size" 1000 (Engine.Pqueue.size q);
  let popped = List.map fst (drain q) in
  Alcotest.(check (list int)) "all sorted" (List.init 1000 (fun i -> i + 1)) popped

let test_grow_across_drain () =
  (* A queue must keep growing correctly after a drain emptied it. *)
  let q = Engine.Pqueue.create ~dummy:0 () in
  for i = 1 to 100 do
    Engine.Pqueue.add q ~key:i i
  done;
  check_int "first fill" 100 (List.length (drain q));
  Alcotest.(check bool) "empty after drain" true (Engine.Pqueue.is_empty q);
  for i = 500 downto 1 do
    Engine.Pqueue.add q ~key:i i
  done;
  check_int "second fill size" 500 (Engine.Pqueue.size q);
  let popped = List.map fst (drain q) in
  Alcotest.(check (list int)) "second fill sorted" (List.init 500 (fun i -> i + 1)) popped

let test_pop_min_exn () =
  let q = Engine.Pqueue.create ~dummy:0 () in
  Engine.Pqueue.add q ~key:9 90;
  Engine.Pqueue.add q ~key:4 40;
  check_int "value-only pop" 40 (Engine.Pqueue.pop_min_value_exn q);
  check_int "next value" 90 (Engine.Pqueue.pop_min_value_exn q);
  Alcotest.check_raises "pop_min_value_exn on empty"
    (Invalid_argument "Pqueue.pop_min_value_exn: empty queue") (fun () ->
      ignore (Engine.Pqueue.pop_min_value_exn q))

let test_peek_does_not_remove () =
  let q = Engine.Pqueue.create ~dummy:"" () in
  Engine.Pqueue.add q ~key:3 "x";
  check_int "peeked key" 3 (Engine.Pqueue.peek_min_key q);
  check_int "still there" 1 (Engine.Pqueue.size q);
  Alcotest.(check (option (pair int string))) "pop returns it" (Some (3, "x"))
    (Engine.Pqueue.pop_min q)

let test_peek_min_key () =
  let q = Engine.Pqueue.create ~dummy:"" () in
  check_int "empty -> max_int" max_int (Engine.Pqueue.peek_min_key q);
  Engine.Pqueue.add q ~key:7 "a";
  Engine.Pqueue.add q ~key:2 "b";
  check_int "smallest key" 2 (Engine.Pqueue.peek_min_key q);
  check_int "no removal" 2 (Engine.Pqueue.size q);
  ignore (Engine.Pqueue.pop_min q);
  check_int "tracks the new min" 7 (Engine.Pqueue.peek_min_key q)

let test_interleaved_add_pop () =
  let q = Engine.Pqueue.create ~dummy:0 () in
  Engine.Pqueue.add q ~key:5 5;
  Engine.Pqueue.add q ~key:1 1;
  (match Engine.Pqueue.pop_min q with
  | Some (1, 1) -> ()
  | _ -> Alcotest.fail "expected 1");
  Engine.Pqueue.add q ~key:0 0;
  Engine.Pqueue.add q ~key:7 7;
  (match Engine.Pqueue.pop_min q with
  | Some (0, 0) -> ()
  | _ -> Alcotest.fail "expected 0");
  let rest = List.map fst (drain q) in
  Alcotest.(check (list int)) "remaining sorted" [ 5; 7 ] rest

(* Property: drain is a stable sort of the inserted (key, index) pairs. *)
let prop_drain_sorted =
  QCheck.Test.make ~name:"pqueue drain = stable sort" ~count:300
    QCheck.(list (int_bound 50))
    (fun keys ->
      let q = Engine.Pqueue.create ~dummy:(0, 0) () in
      List.iteri (fun i k -> Engine.Pqueue.add q ~key:k (k, i)) keys;
      let popped = List.map snd (drain q) in
      let expected =
        List.stable_sort
          (fun (k1, _) (k2, _) -> compare k1 k2)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      popped = expected)

let prop_size_tracks =
  QCheck.Test.make ~name:"pqueue size tracks adds and pops" ~count:200
    QCheck.(list (pair (int_bound 100) bool))
    (fun actions ->
      let q = Engine.Pqueue.create ~dummy:() () in
      let model = ref 0 in
      List.iter
        (fun (k, pop) ->
          if pop then begin
            if Engine.Pqueue.pop_min q <> None then decr model
          end
          else begin
            Engine.Pqueue.add q ~key:k ();
            incr model
          end)
        actions;
      Engine.Pqueue.size q = !model)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
    Alcotest.test_case "fifo ties across pops" `Quick test_fifo_ties_across_pops;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "grow across drain" `Quick test_grow_across_drain;
    Alcotest.test_case "pop_min_exn" `Quick test_pop_min_exn;
    Alcotest.test_case "peek" `Quick test_peek_does_not_remove;
    Alcotest.test_case "peek_min_key" `Quick test_peek_min_key;
    Alcotest.test_case "interleaved" `Quick test_interleaved_add_pop;
    QCheck_alcotest.to_alcotest prop_drain_sorted;
    QCheck_alcotest.to_alcotest prop_size_tracks;
  ]
