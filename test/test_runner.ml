(* Engine.Runner: the parallel experiment engine. Ordering, exception
   propagation, nesting, and — most importantly — byte-identical
   experiment output at every domain count. *)

let check_int = Alcotest.(check int)

let test_map_matches_list_map () =
  let inputs = List.init 57 (fun i -> i) in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "map at domains=%d" domains)
        (List.map (fun x -> (x * x) + 1) inputs)
        (Engine.Runner.map ~domains (fun x -> (x * x) + 1) inputs))
    [ 1; 2; 3; 8 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Engine.Runner.map ~domains:8 succ []);
  Alcotest.(check (list int)) "singleton" [ 42 ] (Engine.Runner.map ~domains:8 succ [ 41 ])

let test_map_array () =
  let xs = Array.init 23 (fun i -> i) in
  Alcotest.(check (array int))
    "array map" (Array.map succ xs)
    (Engine.Runner.map_array ~domains:4 succ xs)

exception Boom of int

let test_first_failure_wins () =
  (* Failures re-raise by input position, not completion time: with
     several failing inputs, the earliest one is reported at every
     domain count. *)
  List.iter
    (fun domains ->
      match
        Engine.Runner.map ~domains
          (fun x -> if x mod 10 = 3 then raise (Boom x) else x)
          (List.init 40 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> check_int (Printf.sprintf "domains=%d" domains) 3 x)
    [ 1; 2; 8 ]

let test_nested_map_degrades () =
  (* A task that itself maps must not spawn more domains; it still
     computes the right thing. *)
  let result =
    Engine.Runner.map ~domains:4
      (fun row -> Engine.Runner.map ~domains:4 (fun x -> x + row) [ 1; 2; 3 ])
      [ 10; 20 ]
  in
  Alcotest.(check (list (list int))) "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] result

let test_default_domains_override () =
  let before = Engine.Runner.default_domains () in
  Engine.Runner.set_default_domains 3;
  check_int "override" 3 (Engine.Runner.default_domains ());
  Engine.Runner.set_default_domains 0;
  check_int "clamped to 1" 1 (Engine.Runner.default_domains ());
  Engine.Runner.set_default_domains before

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts: a miniature slice of every major
   report section, rendered to a buffer at domains=1/2/8, must be
   byte-identical. *)

let mini_report ~domains () =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  (* A small Figure 1 sweep: 2 kinds x 2 cell lengths. *)
  let base =
    {
      Workloads.Csweep.default with
      Workloads.Csweep.processors = 4;
      threads_per_proc = 2;
      iterations = 6;
    }
  in
  List.iter
    (fun (c : Experiments.Fig1.curve) ->
      Format.fprintf out "%s:" (Locks.Lock.kind_name c.Experiments.Fig1.kind);
      List.iter
        (fun (p : Experiments.Fig1.point) ->
          Format.fprintf out " %d=%d" p.Experiments.Fig1.cs_ns p.Experiments.Fig1.total_ns)
        c.Experiments.Fig1.points;
      Format.fprintf out "@.")
    (Experiments.Fig1.of_sweep
       (Workloads.Csweep.sweep ~domains ~base ~cs_lengths:[ 10_000; 60_000 ]
          ~kinds:Experiments.Paper.figure1_lock_kinds ()));
  (* A mini TSP evaluation (all seven machine runs). *)
  let spec =
    {
      Tsp.Parallel.default_spec with
      Tsp.Parallel.cities = 10;
      instance_seed = 3;
      searchers = 3;
      work_unit_ns = 20_000;
    }
  in
  let t = Experiments.Tsp_experiments.run_all ~spec ~domains () in
  Format.fprintf out "tsp seq=%d cost=%d@." t.Experiments.Tsp_experiments.sequential_ns
    t.Experiments.Tsp_experiments.sequential_cost;
  List.iter
    (fun (row : Experiments.Tsp_experiments.table) ->
      Format.fprintf out "%s blocking=%.0f adaptive=%.0f@."
        (Tsp.Parallel.impl_name row.Experiments.Tsp_experiments.impl)
        row.Experiments.Tsp_experiments.blocking_ms
        row.Experiments.Tsp_experiments.adaptive_ms)
    t.Experiments.Tsp_experiments.tables;
  (* One parallel ablation. *)
  List.iter
    (fun (r : Experiments.Ablations.advisory_row) ->
      Format.fprintf out "advisory %s total=%d@." r.Experiments.Ablations.advisory_lock
        r.Experiments.Ablations.total_ns)
    (Experiments.Ablations.advisory ~domains ());
  Format.pp_print_flush out ();
  Buffer.contents buf

let test_report_deterministic_across_domains () =
  let reference = mini_report ~domains:1 () in
  Alcotest.(check bool) "reference is non-trivial" true (String.length reference > 100);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d matches domains=1" domains)
        reference
        (mini_report ~domains ()))
    [ 2; 8 ]

let suite =
  [
    Alcotest.test_case "map = List.map" `Quick test_map_matches_list_map;
    Alcotest.test_case "map edge cases" `Quick test_map_empty_and_singleton;
    Alcotest.test_case "map_array" `Quick test_map_array;
    Alcotest.test_case "first failure wins" `Quick test_first_failure_wins;
    Alcotest.test_case "nested map degrades" `Quick test_nested_map_degrades;
    Alcotest.test_case "default override" `Quick test_default_domains_override;
    Alcotest.test_case "report deterministic across domains" `Quick
      test_report_deterministic_across_domains;
  ]
