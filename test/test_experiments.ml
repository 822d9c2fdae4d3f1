(* Experiment-harness tests: the paper tables' qualitative shapes on
   miniature configurations, plus figure/report plumbing. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let find_row rows name =
  List.find (fun (r : Experiments.Lock_tables.row) -> r.Experiments.Lock_tables.op = name) rows

let test_table4_shape () =
  let rows = Experiments.Lock_tables.table4 () in
  check_int "five locks" 5 (List.length rows);
  let v name = (find_row rows name).Experiments.Lock_tables.local_us in
  check_bool "atomior cheapest" true (v "atomior" < v "spin-lock");
  check_bool "spin = adaptive (initially spins)" true
    (Float.abs (v "spin-lock" -. v "adaptive lock") < 2.0);
  check_bool "blocking most expensive" true (v "blocking-lock" > v "spin-lock");
  List.iter
    (fun (r : Experiments.Lock_tables.row) ->
      check_bool
        (r.Experiments.Lock_tables.op ^ ": remote >= local")
        true
        (r.Experiments.Lock_tables.remote_us >= r.Experiments.Lock_tables.local_us))
    rows

let test_table4_matches_paper_locally () =
  (* The local column is calibrated: within 5% of the paper. *)
  List.iter
    (fun (p : Experiments.Paper.lock_op_row) ->
      let r = find_row (Experiments.Lock_tables.table4 ()) p.Experiments.Paper.lock_name in
      let err =
        Float.abs (r.Experiments.Lock_tables.local_us -. p.Experiments.Paper.local_us)
        /. p.Experiments.Paper.local_us
      in
      check_bool (p.Experiments.Paper.lock_name ^ " within 5%") true (err < 0.05))
    Experiments.Paper.table4

let test_table5_shape () =
  let rows = Experiments.Lock_tables.table5 () in
  let v name = (find_row rows name).Experiments.Lock_tables.local_us in
  check_bool "unlock: spin < adaptive" true (v "spin-lock" < v "adaptive lock");
  check_bool "unlock: adaptive < blocking" true (v "adaptive lock" < v "blocking-lock")

let test_table6_shape () =
  let rows = Experiments.Lock_tables.table6 () in
  let v name = (find_row rows name).Experiments.Lock_tables.local_us in
  check_bool "cycle: spin < backoff" true (v "spin" < v "spin-with-backoff");
  check_bool "cycle: spin < blocking" true (v "spin" < v "blocking-lock")

let test_table7_shape () =
  let rows = Experiments.Lock_tables.table7 () in
  let v name = (find_row rows name).Experiments.Lock_tables.local_us in
  check_bool "adaptive-as-spin cheaper than adaptive-as-blocking" true
    (v "spin" < v "blocking")

let test_table8_shape () =
  let rows = Experiments.Lock_tables.table8 () in
  let v name = (find_row rows name).Experiments.Lock_tables.local_us in
  check_bool "waiting-policy reconfig cheaper than scheduler reconfig" true
    (v "configure(waiting policy)" < v "configure(scheduler)");
  check_bool "monitor sample matches paper within 5%" true
    (Float.abs (v "monitor (one state variable)" -. 66.03) /. 66.03 < 0.05)

(* A miniature TSP spec so the whole Tables 1-3 pipeline stays fast. *)
let mini_spec =
  {
    Tsp.Parallel.default_spec with
    Tsp.Parallel.cities = 12;
    instance_seed = 4;
    searchers = 4;
    work_unit_ns = 15_000;
    trace_locks = true;
  }

let test_tsp_pipeline () =
  let t = Experiments.Tsp_experiments.run_all ~spec:mini_spec () in
  check_int "three tables" 3 (List.length t.Experiments.Tsp_experiments.tables);
  List.iter
    (fun (row : Experiments.Tsp_experiments.table) ->
      check_bool "blocking time positive" true (row.Experiments.Tsp_experiments.blocking_ms > 0.0);
      (* Tiny instances can be sub-linear (overhead-dominated) or
         super-linear (branch-and-bound anomalies); just require a
         plausible band. *)
      check_bool "speedup sane" true
        (row.Experiments.Tsp_experiments.speedup_blocking > 0.1
        && row.Experiments.Tsp_experiments.speedup_blocking
           <= 3.0 *. float_of_int mini_spec.Tsp.Parallel.searchers))
    t.Experiments.Tsp_experiments.tables;
  (* Every figure of Figures 4-9 must have a trace. *)
  List.iter
    (fun (number, impl, lock) ->
      match Experiments.Tsp_experiments.figure t ~impl ~lock with
      | Some series -> check_bool "trace nonempty" true (Engine.Series.length series >= 0)
      | None -> Alcotest.failf "figure %d has no trace" number)
    Experiments.Tsp_experiments.all_figures

let test_fig1_mini () =
  let base =
    {
      Workloads.Csweep.default with
      Workloads.Csweep.processors = 4;
      threads_per_proc = 2;
      iterations = 6;
    }
  in
  let curves =
    Experiments.Fig1.of_sweep
      (Workloads.Csweep.sweep ~base ~cs_lengths:[ 10_000; 50_000 ]
         ~kinds:Experiments.Paper.figure1_lock_kinds ())
  in
  check_int "five curves" 5 (List.length curves);
  let lines = String.split_on_char '\n' (Experiments.Fig1.csv_string curves) in
  check_int "header + 2 data rows (+ trailing)" 4 (List.length lines)

let test_schedulers_shape () =
  let rows = Experiments.Ablations.schedulers () in
  check_int "three schedulers" 3 (List.length rows);
  let response kind =
    (List.find (fun (r : Experiments.Ablations.sched_row) -> r.Experiments.Ablations.sched = kind) rows)
      .Experiments.Ablations.mean_response_us
  in
  check_bool "priority responds fastest" true
    (response Locks.Lock_sched.Priority < response Locks.Lock_sched.Fcfs);
  check_bool "handoff also beats FCFS" true
    (response Locks.Lock_sched.Handoff < response Locks.Lock_sched.Fcfs)

let test_architecture_shape () =
  let rows = Experiments.Ablations.architecture () in
  check_int "4 locks x 2 archs" 8 (List.length rows);
  let get arch impl =
    List.find
      (fun (r : Experiments.Ablations.arch_row) ->
        r.Experiments.Ablations.arch = arch && r.Experiments.Ablations.lock_impl = impl)
      rows
  in
  (* Local spinning reduces interconnect traffic on NUMA. *)
  let numa_central = get "NUMA" "centralized spin" in
  let numa_local = get "NUMA" "local-spin (distributed)" in
  check_bool "local-spin reduces remote accesses" true
    (numa_local.Experiments.Ablations.remote_accesses
    < numa_central.Experiments.Ablations.remote_accesses);
  check_bool "local-spin lowers NUMA waits" true
    (numa_local.Experiments.Ablations.mean_wait_us
    < numa_central.Experiments.Ablations.mean_wait_us)

let test_sampling_monotone_samples () =
  let rows = Experiments.Ablations.sampling ~periods:[ 1; 4; 16 ] () in
  match rows with
  | [ a; b; c ] ->
    check_bool "higher period, fewer samples" true
      (a.Experiments.Ablations.samples > b.Experiments.Ablations.samples
      && b.Experiments.Ablations.samples > c.Experiments.Ablations.samples)
  | _ -> Alcotest.fail "expected three rows"

let test_advisory_shape () =
  let rows = Experiments.Ablations.advisory () in
  check_int "four locks" 4 (List.length rows);
  let time name =
    (List.find
       (fun (r : Experiments.Ablations.advisory_row) ->
         r.Experiments.Ablations.advisory_lock = name)
       rows)
      .Experiments.Ablations.total_ns
  in
  check_bool "advisory beats pure spin" true (time "advisory" < time "pure spin");
  check_bool "advisory at least matches pure blocking" true
    (time "advisory" <= time "pure blocking")

let test_threshold_grid_size () =
  let rows = Experiments.Ablations.threshold ~thresholds:[ 1; 6 ] ~ns:[ 4; 8 ] () in
  check_int "2x2 grid" 4 (List.length rows);
  (* Higher thresholds keep the lock spinning (fewer blocks). *)
  let blocks th =
    List.fold_left
      (fun acc (r : Experiments.Ablations.threshold_row) ->
        if r.Experiments.Ablations.waiting_threshold = th then
          acc + r.Experiments.Ablations.blocks
        else acc)
      0 rows
  in
  check_bool "threshold 6 blocks less than threshold 1" true (blocks 6 <= blocks 1)

let suite =
  [
    Alcotest.test_case "table4 shape" `Quick test_table4_shape;
    Alcotest.test_case "table4 calibration" `Quick test_table4_matches_paper_locally;
    Alcotest.test_case "table5 shape" `Quick test_table5_shape;
    Alcotest.test_case "table6 shape" `Quick test_table6_shape;
    Alcotest.test_case "table7 shape" `Quick test_table7_shape;
    Alcotest.test_case "table8 shape" `Quick test_table8_shape;
    Alcotest.test_case "tsp pipeline (mini)" `Slow test_tsp_pipeline;
    Alcotest.test_case "fig1 (mini)" `Slow test_fig1_mini;
    Alcotest.test_case "schedulers shape" `Slow test_schedulers_shape;
    Alcotest.test_case "architecture shape" `Slow test_architecture_shape;
    Alcotest.test_case "sampling monotone" `Slow test_sampling_monotone_samples;
    Alcotest.test_case "advisory shape" `Slow test_advisory_shape;
    Alcotest.test_case "threshold grid" `Slow test_threshold_grid_size;
  ]
