(* TSP tests: instance generation, LMSK correctness (against brute
   force), and the parallel solvers (optimality, determinism, lock
   accounting). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Small spec so each simulation stays fast. *)
let small_spec =
  {
    Tsp.Parallel.default_spec with
    Tsp.Parallel.cities = 12;
    instance_seed = 4;
    searchers = 4;
    work_unit_ns = 15_000;
  }

let test_instance_deterministic () =
  let a = Tsp.Instance.generate ~seed:5 10 and b = Tsp.Instance.generate ~seed:5 10 in
  for i = 0 to 9 do
    for j = 0 to 9 do
      if i <> j then
        check_int "same costs" (Tsp.Instance.cost a i j) (Tsp.Instance.cost b i j)
    done
  done

let test_instance_seed_matters () =
  let a = Tsp.Instance.generate ~seed:5 10 and b = Tsp.Instance.generate ~seed:6 10 in
  let differs = ref false in
  for i = 0 to 9 do
    for j = 0 to 9 do
      if i <> j && Tsp.Instance.cost a i j <> Tsp.Instance.cost b i j then differs := true
    done
  done;
  check_bool "different seeds differ" true !differs

let test_instance_rejects_tiny () =
  check_bool "n=2 rejected" true
    (try
       ignore (Tsp.Instance.generate ~seed:1 2);
       false
     with Invalid_argument _ -> true)

let test_euclidean_symmetric () =
  let t = Tsp.Instance.generate_euclidean ~seed:3 12 in
  for i = 0 to 11 do
    for j = 0 to 11 do
      if i <> j then
        check_int "symmetric" (Tsp.Instance.cost t i j) (Tsp.Instance.cost t j i)
    done
  done

let test_tour_cost () =
  let m = [| [| 0; 1; 9 |]; [| 9; 0; 2 |]; [| 3; 9; 0 |] |] in
  let t = Tsp.Instance.of_matrix m in
  check_int "0-1-2-0 tour" (1 + 2 + 3) (Tsp.Instance.tour_cost t [ 0; 1; 2 ]);
  check_int "0-2-1-0 tour" (9 + 9 + 9) (Tsp.Instance.tour_cost t [ 0; 2; 1 ])

(* Reduction subtracts only positive minima, so a negative row would
   leave LMSK no zero to branch on: the matrix is refused up front. *)
let test_of_matrix_rejects_negative () =
  let m = [| [| 0; -5; 3; 4 |]; [| 2; 0; -1; 7 |]; [| 6; 1; 0; -3 |]; [| -2; 8; 5; 0 |] |] in
  check_bool "negative cost rejected" true
    (try
       ignore (Tsp.Instance.of_matrix m);
       false
     with Invalid_argument _ -> true);
  let m = Array.map (Array.map abs) m in
  m.(1).(1) <- -7;
  check_int "negative diagonal ignored" 4 (Tsp.Instance.size (Tsp.Instance.of_matrix m))

let test_tour_cost_validates () =
  let t = Tsp.Instance.generate ~seed:1 5 in
  check_bool "wrong length rejected" true
    (try
       ignore (Tsp.Instance.tour_cost t [ 0; 1 ]);
       false
     with Invalid_argument _ -> true);
  check_bool "duplicate rejected" true
    (try
       ignore (Tsp.Instance.tour_cost t [ 0; 1; 1; 2; 3 ]);
       false
     with Invalid_argument _ -> true)

let test_nearest_neighbour_valid () =
  let t = Tsp.Instance.generate ~seed:9 15 in
  let tour, cost = Tsp.Instance.nearest_neighbour t in
  check_int "visits all" 15 (List.length tour);
  check_int "cost consistent" cost (Tsp.Instance.tour_cost t tour)

let test_lmsk_matches_brute_force () =
  for seed = 1 to 12 do
    let inst = Tsp.Instance.generate ~seed 8 in
    let (tour, cost), _ = Tsp.Lmsk.solve_sequential inst in
    check_int (Printf.sprintf "optimal for seed %d" seed) (Tsp.Lmsk.brute_force inst) cost;
    check_int "tour cost consistent" cost (Tsp.Instance.tour_cost inst tour)
  done

let test_lmsk_euclidean_matches_brute_force () =
  for seed = 1 to 6 do
    let inst = Tsp.Instance.generate_euclidean ~seed 8 in
    let (_, cost), _ = Tsp.Lmsk.solve_sequential inst in
    check_int (Printf.sprintf "optimal for euclid seed %d" seed)
      (Tsp.Lmsk.brute_force inst) cost
  done

let test_lmsk_initial_bound_respected () =
  let inst = Tsp.Instance.generate ~seed:3 10 in
  let (_, cost), n_plain = Tsp.Lmsk.solve_sequential inst in
  let greedy = Tsp.Instance.nearest_neighbour inst in
  let (_, cost'), n_primed = Tsp.Lmsk.solve_sequential ~initial:greedy inst in
  check_int "same optimum" cost cost';
  check_bool "priming never expands more" true (n_primed <= n_plain)

let test_lmsk_root_bound_is_lower_bound () =
  for seed = 1 to 10 do
    let inst = Tsp.Instance.generate ~seed 9 in
    let root = Tsp.Lmsk.root inst in
    let opt = Tsp.Lmsk.brute_force inst in
    check_bool "root bound <= optimum" true (Tsp.Lmsk.bound root <= opt)
  done

let test_lmsk_children_bounds_monotonic () =
  let inst = Tsp.Instance.generate ~seed:7 12 in
  let rec walk node depth =
    if depth < 4 then
      match (Tsp.Lmsk.expand inst node).Tsp.Lmsk.outcome with
      | Tsp.Lmsk.Tour _ -> ()
      | Tsp.Lmsk.Children children ->
        List.iter
          (fun c ->
            check_bool "child bound >= parent bound" true
              (Tsp.Lmsk.bound c >= Tsp.Lmsk.bound node);
            walk c (depth + 1))
          children
  in
  walk (Tsp.Lmsk.root inst) 0

let test_lmsk_work_positive () =
  let inst = Tsp.Instance.generate ~seed:2 10 in
  let e = Tsp.Lmsk.expand inst (Tsp.Lmsk.root inst) in
  check_bool "work units positive" true (e.Tsp.Lmsk.work > 0)

(* Pins the search itself, not just its optimum: every expansion's
   bound, charged work, children's bounds and most recent edge (the
   include child's is the chosen branch edge) feed one digest. A
   different tie-break or a bound off by one changes it. *)
let test_lmsk_search_pinned () =
  let inst = Tsp.Instance.generate ~seed:1 31 in
  let log = Buffer.create (1 lsl 18) in
  let on_expand nd work =
    Printf.bprintf log "%d/%d:" (Tsp.Lmsk.bound nd) work;
    (match (Tsp.Lmsk.expand inst nd).Tsp.Lmsk.outcome with
    | Tsp.Lmsk.Tour (tour, cost) ->
      List.iter (Printf.bprintf log " %d") tour;
      Printf.bprintf log " =%d" cost
    | Tsp.Lmsk.Children children ->
      List.iter
        (fun c ->
          Printf.bprintf log " %d" (Tsp.Lmsk.bound c);
          match Tsp.Lmsk.edges c with
          | (i, j) :: _ -> Printf.bprintf log "@%d>%d" i j
          | [] -> ())
        children);
    Buffer.add_char log '\n'
  in
  let (_, cost), nodes = Tsp.Lmsk.solve_sequential ~on_expand inst in
  check_int "tour cost" 167 cost;
  check_int "nodes expanded" 4617 nodes;
  Alcotest.(check string)
    "expansion digest" "c925ed16298fa06d023eee02c6a72a02"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

let run_and_optimum spec impl =
  let _, (opt, _) = Tsp.Parallel.run_sequential spec in
  (Tsp.Parallel.run impl spec, opt)

let test_parallel_finds_optimum impl () =
  let r, opt = run_and_optimum small_spec impl in
  check_int
    (Printf.sprintf "%s finds the optimum" (Tsp.Parallel.impl_name impl))
    opt r.Tsp.Parallel.tour_cost

let test_parallel_adaptive_finds_optimum () =
  let spec = { small_spec with Tsp.Parallel.lock_kind = Tsp.Parallel.tsp_adaptive_kind } in
  let r, opt = run_and_optimum spec Tsp.Parallel.Centralized in
  check_int "adaptive centralized optimum" opt r.Tsp.Parallel.tour_cost;
  check_bool "some adaptations happened" true (r.Tsp.Parallel.adaptations >= 0)

let test_parallel_deterministic () =
  let run () = (Tsp.Parallel.run Tsp.Parallel.Distributed small_spec).Tsp.Parallel.total_ns in
  check_int "same virtual time across runs" (run ()) (run ())

let test_parallel_lock_reports_present () =
  let r = Tsp.Parallel.run Tsp.Parallel.Centralized small_spec in
  let names = List.map fst r.Tsp.Parallel.lock_reports in
  check_bool "qlock reported" true (List.mem "qlock" names);
  check_bool "glob-act-lock reported" true (List.mem "glob-act-lock" names);
  check_bool "glob-low-lock reported" true (List.mem "glob-low-lock" names);
  check_bool "globlock reported" true (List.mem "globlock" names)

let test_parallel_distributed_has_per_proc_queues () =
  let r = Tsp.Parallel.run Tsp.Parallel.Distributed small_spec in
  let qlocks =
    List.filter
      (fun (n, _) -> String.length n >= 6 && String.sub n 0 6 = "qlock.")
      r.Tsp.Parallel.lock_reports
  in
  check_int "one queue lock per searcher" small_spec.Tsp.Parallel.searchers
    (List.length qlocks)

let test_parallel_trace_enabled () =
  let r =
    Tsp.Parallel.run Tsp.Parallel.Centralized
      { small_spec with Tsp.Parallel.trace_locks = true }
  in
  let qlock = List.assoc "qlock" r.Tsp.Parallel.lock_reports in
  check_bool "trace recorded" true (Locks.Lock_stats.trace qlock <> None)

let test_sequential_virtual_time_scales () =
  let t1, _ = Tsp.Parallel.run_sequential small_spec in
  let t2, _ =
    Tsp.Parallel.run_sequential { small_spec with Tsp.Parallel.work_unit_ns = 30_000 }
  in
  check_bool "doubling unit cost increases time" true (t2 > t1)

let test_useless_expansions_counted () =
  let r = Tsp.Parallel.run Tsp.Parallel.Distributed small_spec in
  check_bool "useless <= expanded" true
    (r.Tsp.Parallel.useless_expansions <= r.Tsp.Parallel.nodes_expanded)

(* Random small instances of three kinds: uniform, Euclidean, and
   uniform with forbidden (max_int / 4) entries, where LMSK and brute
   force must also agree on whether any tour exists. *)
let forbidden_instance ~seed n =
  let rng = Random.State.make [| seed |] in
  Tsp.Instance.of_matrix
    (Array.init n (fun _ ->
         Array.init n (fun _ ->
             if Random.State.int rng 3 = 0 then max_int / 4
             else 1 + Random.State.int rng 100)))

let prop_lmsk_optimal ?(kind = "") make =
  QCheck.Test.make ~name:("lmsk finds brute-force optimum" ^ kind) ~count:40
    QCheck.(pair (int_range 1 100_000) (int_range 4 9))
    (fun (seed, n) ->
      let inst = make ~seed n in
      let opt = Tsp.Lmsk.brute_force inst in
      match Tsp.Lmsk.solve_sequential inst with
      | (tour, cost), _ -> cost = opt && Tsp.Instance.tour_cost inst tour = cost
      | exception Invalid_argument _ -> opt >= max_int / 4)

let suite =
  [
    Alcotest.test_case "instance deterministic" `Quick test_instance_deterministic;
    Alcotest.test_case "instance seeds differ" `Quick test_instance_seed_matters;
    Alcotest.test_case "tiny instance rejected" `Quick test_instance_rejects_tiny;
    Alcotest.test_case "euclidean symmetric" `Quick test_euclidean_symmetric;
    Alcotest.test_case "tour cost" `Quick test_tour_cost;
    Alcotest.test_case "tour cost validates" `Quick test_tour_cost_validates;
    Alcotest.test_case "negative cost rejected" `Quick test_of_matrix_rejects_negative;
    Alcotest.test_case "nearest neighbour valid" `Quick test_nearest_neighbour_valid;
    Alcotest.test_case "lmsk = brute force (uniform)" `Quick test_lmsk_matches_brute_force;
    Alcotest.test_case "lmsk = brute force (euclid)" `Quick
      test_lmsk_euclidean_matches_brute_force;
    Alcotest.test_case "initial bound respected" `Quick test_lmsk_initial_bound_respected;
    Alcotest.test_case "root bound lower-bounds" `Quick test_lmsk_root_bound_is_lower_bound;
    Alcotest.test_case "child bounds monotonic" `Quick test_lmsk_children_bounds_monotonic;
    Alcotest.test_case "work positive" `Quick test_lmsk_work_positive;
    Alcotest.test_case "search pinned" `Quick test_lmsk_search_pinned;
    Alcotest.test_case "centralized optimum" `Quick
      (test_parallel_finds_optimum Tsp.Parallel.Centralized);
    Alcotest.test_case "distributed optimum" `Quick
      (test_parallel_finds_optimum Tsp.Parallel.Distributed);
    Alcotest.test_case "balanced optimum" `Quick
      (test_parallel_finds_optimum Tsp.Parallel.Balanced);
    Alcotest.test_case "adaptive optimum" `Quick test_parallel_adaptive_finds_optimum;
    Alcotest.test_case "parallel deterministic" `Quick test_parallel_deterministic;
    Alcotest.test_case "lock reports present" `Quick test_parallel_lock_reports_present;
    Alcotest.test_case "per-proc queues" `Quick test_parallel_distributed_has_per_proc_queues;
    Alcotest.test_case "trace enabled" `Quick test_parallel_trace_enabled;
    Alcotest.test_case "virtual time scales" `Quick test_sequential_virtual_time_scales;
    Alcotest.test_case "useless counted" `Quick test_useless_expansions_counted;
    QCheck_alcotest.to_alcotest
      (prop_lmsk_optimal (fun ~seed n -> Tsp.Instance.generate ~seed n));
    QCheck_alcotest.to_alcotest
      (prop_lmsk_optimal ~kind:" (euclidean)" (fun ~seed n ->
           Tsp.Instance.generate_euclidean ~seed n));
    QCheck_alcotest.to_alcotest
      (prop_lmsk_optimal ~kind:" (forbidden entries)" forbidden_instance);
  ]
