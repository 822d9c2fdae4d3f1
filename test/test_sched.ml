(* Tests of the discrete-event scheduler: virtual time accounting,
   fork/join, block/wakeup, determinism, linearization of atomics. *)

open Butterfly

let small_cfg =
  {
    Config.default with
    Config.processors = 4;
    switch_ns = 1_000;
    block_ns = 2_000;
    unblock_ns = 1_500;
    wakeup_latency_ns = 500;
    fork_ns = 3_000;
    join_ns = 400;
    yield_ns = 700;
    contention = false;
    quantum_ns = None;
  }

let run_sim ?(cfg = small_cfg) main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty_main () =
  let sim = run_sim (fun () -> ()) in
  check_int "no time consumed" 0 (Sched.final_time sim)

let test_work_advances_time () =
  let sim = run_sim (fun () -> Ops.work 12_345) in
  check_int "final time equals the work" 12_345 (Sched.final_time sim)

let test_work_instrs_scaling () =
  let sim = run_sim (fun () -> Ops.work_instrs 100) in
  check_int "instructions scale by instr_ns" (100 * small_cfg.Config.instr_ns)
    (Sched.final_time sim)

let test_now_tracks_work () =
  let seen = ref (-1) in
  let (_ : Sched.t) =
    run_sim (fun () ->
        Ops.work 5_000;
        seen := Ops.now ())
  in
  check_int "now after work" 5_000 !seen

let test_memory_read_write () =
  let result = ref 0 in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let a = Ops.alloc1 ~node:0 () in
        Ops.write a 42;
        result := Ops.read a)
  in
  check_int "read back what was written" 42 !result

let test_local_vs_remote_latency () =
  let local_elapsed = ref 0 and remote_elapsed = ref 0 in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let local = Ops.alloc1 ~node:0 () in
        let remote = Ops.alloc1 ~node:1 () in
        let t0 = Ops.now () in
        let (_ : int) = Ops.read local in
        let t1 = Ops.now () in
        let (_ : int) = Ops.read remote in
        let t2 = Ops.now () in
        local_elapsed := t1 - t0;
        remote_elapsed := t2 - t1)
  in
  check_int "local read latency" small_cfg.Config.local_read_ns !local_elapsed;
  check_int "remote read latency" small_cfg.Config.remote_read_ns !remote_elapsed

let test_fetch_and_or_semantics () =
  let prev1 = ref (-1) and prev2 = ref (-1) and final = ref (-1) in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let a = Ops.alloc1 ~node:0 () in
        prev1 := Ops.fetch_and_or a 1;
        prev2 := Ops.fetch_and_or a 2;
        final := Ops.read a)
  in
  check_int "first returns 0" 0 !prev1;
  check_int "second returns 1" 1 !prev2;
  check_int "final value is or of both" 3 !final

let test_cas () =
  let ok = ref false and ko = ref true and v = ref 0 in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let a = Ops.alloc1 ~node:0 () in
        Ops.write a 7;
        ok := Ops.compare_and_swap a ~expected:7 ~desired:9;
        ko := Ops.compare_and_swap a ~expected:7 ~desired:11;
        v := Ops.read a)
  in
  check_bool "first cas succeeds" true !ok;
  check_bool "second cas fails" false !ko;
  check_int "value is from the successful cas" 9 !v

let test_fork_join () =
  let child_ran = ref false and order = ref [] in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let tid =
          Ops.fork
            {
              f =
                (fun () ->
                  Ops.work 10_000;
                  child_ran := true;
                  order := "child" :: !order);
              proc = Some 1;
              prio = 0;
              name = "child";
            }
        in
        Ops.join tid;
        order := "parent" :: !order)
  in
  check_bool "child ran" true !child_ran;
  Alcotest.(check (list string)) "join ordered after child" [ "parent"; "child" ] !order

let test_parallel_speedup () =
  (* Two threads of equal work on distinct processors should finish in
     roughly half the serial time. *)
  let work = 1_000_000 in
  let serial = run_sim (fun () -> Ops.work (2 * work)) in
  let parallel =
    run_sim (fun () ->
        let spawn p =
          Ops.fork { f = (fun () -> Ops.work work); proc = Some p; prio = 0; name = "w" }
        in
        let a = spawn 1 and b = spawn 2 in
        Ops.join a;
        Ops.join b)
  in
  check_bool "parallel at most ~half of serial + overheads"
    true
    (Sched.final_time parallel < Sched.final_time serial);
  check_bool "parallel at least the single-thread work" true
    (Sched.final_time parallel >= work)

let test_same_proc_serialization () =
  (* Two threads pinned to the same processor serialize. *)
  let work = 500_000 in
  let sim =
    run_sim (fun () ->
        let spawn () =
          Ops.fork { f = (fun () -> Ops.work work); proc = Some 1; prio = 0; name = "w" }
        in
        let a = spawn () and b = spawn () in
        Ops.join a;
        Ops.join b)
  in
  check_bool "two same-proc workers take at least 2x work" true
    (Sched.final_time sim >= 2 * work)

let test_block_wakeup () =
  let woke = ref false in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let sleeper =
          Ops.fork
            {
              f =
                (fun () ->
                  Ops.block ();
                  woke := true);
              proc = Some 1;
              prio = 0;
              name = "sleeper";
            }
        in
        Ops.work 50_000;
        Ops.wakeup sleeper;
        Ops.join sleeper)
  in
  check_bool "sleeper woke" true !woke

let test_wakeup_before_block_not_lost () =
  let woke = ref false in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let sleeper =
          Ops.fork
            {
              f =
                (fun () ->
                  (* Sleeper delays so the wakeup arrives first. *)
                  Ops.work 100_000;
                  Ops.block ();
                  woke := true);
              proc = Some 1;
              prio = 0;
              name = "sleeper";
            }
        in
        Ops.wakeup sleeper;
        Ops.join sleeper)
  in
  check_bool "early wakeup is not lost" true !woke

let test_deadlock_detection () =
  Alcotest.check_raises "deadlock raises"
    (Sched.Deadlock "main(#0 blocked)")
    (fun () ->
      let sim = Sched.create small_cfg in
      Sched.run sim (fun () -> Ops.block ()))

let test_thread_crash_propagates () =
  let sim = Sched.create small_cfg in
  let raised =
    try
      (Sched.run sim (fun () -> failwith "boom") : unit);
      false
    with Sched.Thread_crash (name, Failure msg) -> name = "main" && msg = "boom"
  in
  check_bool "crash propagates with thread name" true raised

let test_run_returns_main_value () =
  let sim = Sched.create small_cfg in
  let v =
    Sched.run sim (fun () ->
        Ops.work 1_000;
        (Ops.now (), "main"))
  in
  Alcotest.(check (pair int string)) "main's value" (1_000, "main") v

(* Main forks a long worker and returns without joining it: [run]
   still waits for the worker, and the final clock covers it. *)
let test_run_waits_for_outliving_threads () =
  let sim = Sched.create small_cfg in
  let worker_done = ref false in
  let v =
    Sched.run sim (fun () ->
        ignore
          (Ops.fork
             {
               f =
                 (fun () ->
                   Ops.work 5_000_000;
                   worker_done := true);
               proc = Some 1;
               prio = 0;
               name = "worker";
             });
        42)
  in
  check_int "main's value" 42 v;
  check_bool "worker finished before run returned" true !worker_done;
  check_bool "final time covers the worker" true (Sched.final_time sim >= 5_000_000)

(* A timer kills main (tid 0) mid-run; its forked worker runs on to
   the end, so every thread finishes but main never returns. *)
let killed_main_sim () =
  let sim = Sched.create small_cfg in
  Sched.add_timer sim ~at:50_000 (fun () ->
      ignore (Sched.kill_thread sim ~tid:0 ~at:50_000 : bool));
  let program () =
    ignore
      (Ops.fork { f = (fun () -> Ops.work 200_000); proc = Some 1; prio = 0; name = "worker" });
    Ops.work 1_000_000
  in
  (sim, program)

let test_killed_main_raises () =
  let sim, program = killed_main_sim () in
  Alcotest.check_raises "killed main" Sched.Main_not_returned (fun () ->
      Sched.run sim (fun () ->
          program ();
          7)
      |> ignore)

let test_killed_main_outcome () =
  let sim, program = killed_main_sim () in
  check_bool "completed" true (Sched.run_outcome sim program = Sched.Completed);
  (* Main's 1 ms [work] is charged within its dispatch, before the
     50 us timer fires, so it still ends on processor 0's clock. *)
  check_int "final time" 1_003_000 (Sched.final_time sim);
  check_int "events" 6 (Sched.events_executed sim)

let test_delay_releases_processor () =
  (* A delaying thread lets a sibling on the same processor run. *)
  let sibling_done_at = ref 0 in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let delayer =
          Ops.fork
            {
              f = (fun () -> Ops.delay 1_000_000);
              proc = Some 1;
              prio = 0;
              name = "delayer";
            }
        in
        let sibling =
          Ops.fork
            {
              f =
                (fun () ->
                  Ops.work 10_000;
                  sibling_done_at := Ops.now ());
              proc = Some 1;
              prio = 0;
              name = "sibling";
            }
        in
        Ops.join delayer;
        Ops.join sibling)
  in
  check_bool "sibling finished well before the delay elapsed" true
    (!sibling_done_at < 1_000_000)

let test_work_occupies_processor () =
  (* Pure computation (work) keeps a same-processor sibling off the cpu. *)
  let sibling_done_at = ref 0 in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let spinner =
          Ops.fork
            { f = (fun () -> Ops.work 1_000_000); proc = Some 1; prio = 0; name = "spinner" }
        in
        Ops.work 1_000;
        (* sibling forked after the spinner is already running *)
        let sibling =
          Ops.fork
            {
              f =
                (fun () ->
                  Ops.work 10_000;
                  sibling_done_at := Ops.now ());
              proc = Some 1;
              prio = 0;
              name = "sibling";
            }
        in
        Ops.join spinner;
        Ops.join sibling)
  in
  check_bool "sibling had to wait for the spinner" true (!sibling_done_at >= 1_000_000)

let test_quantum_interleaves_work () =
  let cfg = { small_cfg with Config.quantum_ns = Some 10_000 } in
  let sibling_done_at = ref 0 in
  let (_ : Sched.t) =
    run_sim ~cfg (fun () ->
        let spinner =
          Ops.fork
            { f = (fun () -> Ops.work 1_000_000); proc = Some 1; prio = 0; name = "spinner" }
        in
        Ops.work 1_000;
        let sibling =
          Ops.fork
            {
              f =
                (fun () ->
                  Ops.work 10_000;
                  sibling_done_at := Ops.now ());
              proc = Some 1;
              prio = 0;
              name = "sibling";
            }
        in
        Ops.join spinner;
        Ops.join sibling)
  in
  check_bool "quantum lets the sibling in early" true (!sibling_done_at < 200_000)

let test_determinism () =
  let run () =
    let trace = Buffer.create 64 in
    let (_ : Sched.t) =
      run_sim (fun () ->
          let a = Ops.alloc1 ~node:0 () in
          let workers =
            List.init 4 (fun i ->
                Ops.fork
                  {
                    f =
                      (fun () ->
                        for _ = 1 to 10 do
                          let v = Ops.fetch_and_add a 1 in
                          Ops.work (100 + (v mod 7) * 50)
                        done);
                    proc = Some (i mod 3);
                    prio = 0;
                    name = Printf.sprintf "w%d" i;
                  })
          in
          List.iter Ops.join workers;
          Buffer.add_string trace (string_of_int (Ops.read a));
          Buffer.add_char trace '@';
          Buffer.add_string trace (string_of_int (Ops.now ())))
    in
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

let test_atomic_linearization () =
  (* Concurrent fetch_and_add from many processors must not lose
     increments. *)
  let expected = 8 * 200 in
  let total = ref (-1) in
  let (_ : Sched.t) =
    run_sim
      ~cfg:{ small_cfg with Config.processors = 8; contention = true }
      (fun () ->
        let a = Ops.alloc1 ~node:0 () in
        let workers =
          List.init 8 (fun i ->
              Ops.fork
                {
                  f =
                    (fun () ->
                      for _ = 1 to 200 do
                        ignore (Ops.fetch_and_add a 1)
                      done);
                  proc = Some i;
                  prio = 0;
                  name = Printf.sprintf "adder%d" i;
                })
        in
        List.iter Ops.join workers;
        total := Ops.read a)
  in
  check_int "no lost increments" expected !total

let test_contention_slows_hot_module () =
  let elapsed contention =
    let sim =
      run_sim
        ~cfg:{ small_cfg with Config.processors = 8; contention }
        (fun () ->
          let a = Ops.alloc1 ~node:0 () in
          let workers =
            List.init 8 (fun i ->
                Ops.fork
                  {
                    f =
                      (fun () ->
                        for _ = 1 to 100 do
                          ignore (Ops.fetch_and_add a 1)
                        done);
                    proc = Some i;
                    prio = 0;
                    name = "w";
                  })
          in
          List.iter Ops.join workers)
    in
    Sched.final_time sim
  in
  check_bool "contended run is slower" true (elapsed true > elapsed false)

let test_counters_populated () =
  let sim =
    run_sim (fun () ->
        let a = Ops.alloc1 ~node:0 () in
        Ops.write a 1;
        ignore (Ops.read a);
        ignore (Ops.fetch_and_add a 1))
  in
  let c = Sched.counters sim in
  check_int "one tracked read" 1 (Engine.Counters.get c "mem.read");
  check_int "one tracked write" 1 (Engine.Counters.get c "mem.write");
  check_int "one tracked atomic" 1 (Engine.Counters.get c "mem.atomic")

let test_single_use () =
  let sim = Sched.create small_cfg in
  Sched.run sim (fun () -> ());
  let raised =
    try
      Sched.run sim (fun () -> ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "second run rejected" true raised

let test_priorities_stored () =
  let seen = ref (-1) in
  let (_ : Sched.t) =
    run_sim (fun () ->
        let tid =
          Ops.fork { f = (fun () -> Ops.work 10); proc = None; prio = 3; name = "p" }
        in
        Ops.set_priority tid 7;
        seen := Ops.priority_of tid;
        Ops.join tid)
  in
  check_int "priority readable" 7 !seen

let suite =
  [
    Alcotest.test_case "empty main" `Quick test_empty_main;
    Alcotest.test_case "work advances time" `Quick test_work_advances_time;
    Alcotest.test_case "work_instrs scales" `Quick test_work_instrs_scaling;
    Alcotest.test_case "now tracks work" `Quick test_now_tracks_work;
    Alcotest.test_case "memory read/write" `Quick test_memory_read_write;
    Alcotest.test_case "local vs remote latency" `Quick test_local_vs_remote_latency;
    Alcotest.test_case "fetch_and_or" `Quick test_fetch_and_or_semantics;
    Alcotest.test_case "cas" `Quick test_cas;
    Alcotest.test_case "fork/join" `Quick test_fork_join;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "same-proc serialization" `Quick test_same_proc_serialization;
    Alcotest.test_case "block/wakeup" `Quick test_block_wakeup;
    Alcotest.test_case "early wakeup not lost" `Quick test_wakeup_before_block_not_lost;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "thread crash propagates" `Quick test_thread_crash_propagates;
    Alcotest.test_case "run returns main's value" `Quick test_run_returns_main_value;
    Alcotest.test_case "run waits for outliving threads" `Quick
      test_run_waits_for_outliving_threads;
    Alcotest.test_case "killed main raises" `Quick test_killed_main_raises;
    Alcotest.test_case "killed main completes outcome" `Quick test_killed_main_outcome;
    Alcotest.test_case "delay releases processor" `Quick test_delay_releases_processor;
    Alcotest.test_case "work occupies processor" `Quick test_work_occupies_processor;
    Alcotest.test_case "quantum interleaves" `Quick test_quantum_interleaves_work;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "atomic linearization" `Quick test_atomic_linearization;
    Alcotest.test_case "contention slows hot module" `Quick test_contention_slows_hot_module;
    Alcotest.test_case "counters populated" `Quick test_counters_populated;
    Alcotest.test_case "machine is single-use" `Quick test_single_use;
    Alcotest.test_case "priorities stored" `Quick test_priorities_stored;
  ]
