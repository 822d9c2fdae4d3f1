let () =
  Alcotest.run "adaptive_objects"
    [
      ("pqueue", Test_pqueue.suite);
      ("runner", Test_runner.suite);
      ("rng", Test_rng.suite);
      ("series", Test_series.suite);
      ("counters", Test_counters.suite);
      ("memory", Test_memory.suite);
      ("sched", Test_sched.suite);
      ("sched_more", Test_sched_more.suite);
      ("hooks", Test_hooks.suite);
      ("cthreads", Test_cthreads.suite);
      ("adaptive_core", Test_adaptive_core.suite);
      ("locks", Test_locks.suite);
      ("lock_units", Test_lock_units.suite);
      ("workloads", Test_workloads.suite);
      ("monitoring", Test_monitoring.suite);
      ("tsp", Test_tsp.suite);
      ("stats", Test_stats.suite);
      ("extra_locks", Test_extra_locks.suite);
      ("additions", Test_additions.suite);
      ("formal", Test_formal.suite);
      ("properties", Test_properties.suite);
      ("experiments", Test_experiments.suite);
      ("analysis", Test_analysis.suite);
      ("predict", Test_predict.suite);
      ("faults", Test_faults.suite);
      ("objects", Test_objects.suite);
      ("policy_check", Test_policy_check.suite);
      ("proto_check", Test_proto_check.suite);
      ("fastpath", Test_fastpath.suite);
      ("switch_lock", Test_switch_lock.suite);
      ("contract", Test_acquire_contract.suite);
      ("fleet", Test_fleet.suite);
    ]
