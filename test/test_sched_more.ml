(* Further scheduler/engine tests: introspection, preemption
   accounting, placement, limits, and non-preemptive semantics. *)

open Butterfly

let base_cfg =
  {
    Config.default with
    Config.processors = 4;
    contention = false;
    quantum_ns = None;
    switch_ns = 1_000;
    fork_ns = 2_000;
    wakeup_latency_ns = 500;
    block_ns = 1_000;
    unblock_ns = 1_000;
  }

let run ?(cfg = base_cfg) main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_busy_accounting () =
  let sim =
    run (fun () ->
        let t =
          Cthreads.Cthread.fork ~proc:2 (fun () -> Ops.work 100_000)
        in
        Ops.work 50_000;
        Cthreads.Cthread.join t)
  in
  let busy = Sched.processor_busy_ns sim in
  check_bool "proc 0 busy at least its work" true (busy.(0) >= 50_000);
  check_bool "proc 2 busy at least child's work" true (busy.(2) >= 100_000);
  check_int "proc 3 idle" 0 busy.(3)

let test_thread_report () =
  let sim =
    run (fun () ->
        let t = Cthreads.Cthread.fork ~name:"worker" ~proc:1 (fun () -> Ops.work 42_000) in
        Cthreads.Cthread.join t)
  in
  let report = Sched.thread_report sim in
  check_int "two threads" 2 (List.length report);
  let _, name, cpu = List.nth report 1 in
  Alcotest.(check string) "named" "worker" name;
  check_bool "cpu recorded" true (cpu >= 42_000)

let test_round_robin_placement () =
  let procs = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let ts =
          List.init 4 (fun _ ->
              Cthreads.Cthread.fork (fun () -> procs := Ops.my_processor () :: !procs))
        in
        Cthreads.Cthread.join_all ts)
  in
  let sorted = List.sort_uniq compare !procs in
  check_bool "spread over several processors" true (List.length sorted >= 3)

let test_fork_bad_processor () =
  let raised = ref false in
  (try
     let (_ : Sched.t) =
       run (fun () ->
           ignore (Ops.fork { f = (fun () -> ()); proc = Some 99; prio = 0; name = "x" }))
     in
     ()
   with
   | Invalid_argument _ -> raised := true
   | Sched.Thread_crash (_, Invalid_argument _) -> raised := true);
  check_bool "bad processor rejected" true !raised

let test_event_limit () =
  let raised = ref false in
  (try
     let cfg = { base_cfg with Config.max_events = 50 } in
     let (_ : Sched.t) =
       run ~cfg (fun () ->
           for _ = 1 to 1000 do
             Ops.work 10
           done)
     in
     ()
   with Sched.Event_limit_exceeded -> raised := true);
  check_bool "event limit fires" true !raised

let test_trace_hook () =
  let messages = ref [] in
  let sim = Sched.create base_cfg in
  Sched.add_trace_hook sim (fun ~time ~tid msg -> messages := (time, tid, msg) :: !messages);
  Sched.run sim (fun () ->
      Ops.work 5_000;
      Ops.trace "hello");
  match !messages with
  | [ (time, tid, "hello") ] ->
    check_int "main thread" 0 tid;
    check_int "after the work" 5_000 time
  | _ -> Alcotest.fail "expected exactly one trace message"

let test_nonpreemptive_continuation () =
  (* Without a quantum, a thread issuing many short operations keeps
     its processor: its same-proc sibling only runs afterwards. *)
  let sibling_done = ref 0 and spinner_done = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let spinner =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              for _ = 1 to 100 do
                Ops.work 1_000
              done;
              spinner_done := Ops.now ())
        in
        Ops.work 1_000;
        let sibling =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              Ops.work 1_000;
              sibling_done := Ops.now ())
        in
        Cthreads.Cthread.join spinner;
        Cthreads.Cthread.join sibling)
  in
  check_bool "sibling ran only after the spinner finished" true
    (!sibling_done > !spinner_done)

let test_quantum_preempts_short_ops () =
  (* With a quantum, the same pattern interleaves: the sibling finishes
     long before the spinner. *)
  let cfg = { base_cfg with Config.quantum_ns = Some 5_000 } in
  let sibling_done = ref 0 and spinner_done = ref 0 in
  let sim =
    run ~cfg (fun () ->
        let spinner =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              for _ = 1 to 100 do
                Ops.work 1_000
              done;
              spinner_done := Ops.now ())
        in
        Ops.work 1_000;
        let sibling =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              Ops.work 1_000;
              sibling_done := Ops.now ())
        in
        Cthreads.Cthread.join spinner;
        Cthreads.Cthread.join sibling)
  in
  check_bool "sibling slipped in early" true (!sibling_done < !spinner_done);
  check_bool "preemptions counted" true
    (Engine.Counters.get (Sched.counters sim) "sched.preemptions" > 0)

let test_yield_releases_processor () =
  (* A yielding loop lets the sibling interleave even without a
     quantum. *)
  let order = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let a =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              for i = 1 to 3 do
                order := (`A, i) :: !order;
                Ops.work 1_000;
                Ops.yield ()
              done)
        in
        Ops.work 500;
        let b =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              for i = 1 to 3 do
                order := (`B, i) :: !order;
                Ops.work 1_000;
                Ops.yield ()
              done)
        in
        Cthreads.Cthread.join a;
        Cthreads.Cthread.join b)
  in
  (* Interleaved: B appears before A's last iteration. *)
  let sequence = List.rev !order in
  let first_b = ref (-1) and last_a = ref (-1) in
  List.iteri
    (fun i -> function
      | `B, 1 -> if !first_b < 0 then first_b := i
      | `A, 3 -> last_a := i
      | _ -> ())
    sequence;
  check_bool "yield interleaves" true (!first_b >= 0 && !first_b < !last_a)

(* The schedule log stores tids as varints: with 240 threads, tids
   from 128 up take two bytes, and the log outgrows its first buffer.
   Replaying the decoded log must reproduce the run exactly. *)
let test_schedule_log_round_trip () =
  let program () =
    let word = Ops.alloc1 ~node:0 () in
    Cthreads.Cthread.join_all
      (List.init 240 (fun i ->
           Cthreads.Cthread.fork ~proc:(i mod 4) (fun () ->
               ignore (Ops.fetch_and_add word 1);
               Cthreads.Cthread.yield ();
               Ops.work (1_000 * (i mod 7)))))
  in
  let sim = Sched.create base_cfg in
  Sched.set_record_schedule sim true;
  Sched.run sim program;
  let schedule = Sched.recorded_schedule sim in
  check_bool "some tids need two varint bytes" true (List.exists (fun t -> t >= 128) schedule);
  check_bool "log outgrows its first buffer" true (List.length schedule > 256);
  let replay = Sched.create base_cfg in
  Sched.set_schedule_control replay schedule;
  Sched.set_record_schedule replay true;
  Sched.run replay program;
  check_bool "replay is faithful" true (Sched.replay_faithful replay schedule);
  check_int "same final clock" (Sched.final_time sim) (Sched.final_time replay)

(* {2 Pinned multi-runnable run}

   One run through every hot operation of the dispatcher, with several
   processors runnable at once, pinned by a digest of everything the
   run's outcome consists of: final time, event count, every counter,
   per-thread cpu and per-processor busy time. A host-side change to
   the dispatcher must leave both digests unchanged. (The fast-path A/B
   tests compare modes of one dispatcher, so a change that moves every
   mode alike passes them; this pin does not.) *)

let digest_cfg = { Config.default with Config.processors = 4; quantum_ns = Some 20_000 }

let spawn ~proc f = Ops.fork { Ops.f; proc = Some proc; prio = 0; name = "" }

(* Counts the probe outcomes it saw, and notes whether its last phase
   ran in fast mode, so the test can check that the run took the paths
   it is meant to cover. *)
let digest_program expired retried fast_seen () =
  let words = Ops.alloc ~node:1 4 in
  let lock = Ops.alloc1 ~node:2 () and flag = Ops.alloc1 ~node:3 () in
  let mutator =
    spawn ~proc:1 (fun () ->
        for i = 1 to 4 do
          ignore (Ops.read words.(0));
          Ops.write words.(1) i;
          ignore (Ops.fetch_and_or words.(2) i);
          ignore (Ops.fetch_and_add words.(3) i);
          ignore (Ops.swap words.(0) i);
          let cur = Ops.read words.(1) in
          ignore (Ops.compare_and_swap words.(1) ~expected:cur ~desired:(cur + 1));
          ignore (Ops.compare_and_swap words.(1) ~expected:(-1) ~desired:0);
          (* both cross the 20 us quantum and leave work debt *)
          Ops.work 50_000;
          Ops.work_instrs 500;
          Ops.yield ()
        done)
  in
  let holder =
    spawn ~proc:2 (fun () ->
        ignore (Ops.test_and_set lock);
        Ops.work 300_000;
        Ops.delay 50_000;
        Ops.write lock 0)
  in
  let prober =
    spawn ~proc:3 (fun () ->
        Ops.work 1_000;
        let until = Ops.now () + 60_000 in
        let rec probe until =
          match Ops.lock_probe_timed ~pre_instrs:4 ~retry_instrs:10 ~gap_ns:5_000 ~until lock with
          | Ops.Probe_acquired -> ()
          | Ops.Probe_expired ->
            incr expired;
            probe max_int
          | Ops.Probe_retrying ->
            incr retried;
            probe until
        in
        probe until;
        Ops.write flag 1;
        Ops.write lock 0)
  in
  let poller =
    (* queued behind the mutator on processor 1 *)
    spawn ~proc:1 (fun () ->
        while Ops.read_hint ~pre_ns:1_000 ~gap_ns:2_000 ~expect:0 flag = 0 do
          ()
        done)
  in
  let sleeper = spawn ~proc:2 (fun () -> Ops.block ()) in
  (* Woken before it blocks: the wakeup becomes a token it absorbs. *)
  let early = spawn ~proc:3 (fun () -> Ops.block ()) in
  Ops.wakeup early;
  Ops.delay 1_000_000;
  Ops.wakeup sleeper;
  List.iter Ops.join [ mutator; holder; prober; poller; sleeper; early ];
  (* Alone on the machine: fast slices, recorded or not. *)
  for i = 1 to 50 do
    Ops.write words.(i mod 4) (Ops.read words.((i + 1) mod 4) + i);
    Ops.work 3_000;
    if (Mstate.get ()).fast then fast_seen := true
  done

(* Final time, event count, every counter, per-thread cpu, per-processor
   busy time and, for a recorded run, the dispatch order. *)
let outcome_digest ~record sim =
  let b = Buffer.create 1024 in
  Printf.bprintf b "final=%d events=%d\n" (Sched.final_time sim) (Sched.events_executed sim);
  List.iter
    (fun (name, v) -> Printf.bprintf b "%s=%d\n" name v)
    (Engine.Counters.to_list (Sched.counters sim));
  List.iter (fun (tid, _, cpu) -> Printf.bprintf b "cpu %d=%d\n" tid cpu) (Sched.thread_report sim);
  Array.iteri (fun pid ns -> Printf.bprintf b "busy %d=%d\n" pid ns) (Sched.processor_busy_ns sim);
  if record then
    List.iter (fun tid -> Printf.bprintf b "%d " tid) (Sched.recorded_schedule sim);
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_digest ~record =
  let sim = Sched.create digest_cfg in
  Sched.set_record_schedule sim record;
  let expired = ref 0 and retried = ref 0 and fast_seen = ref false in
  Sched.run sim (digest_program expired retried fast_seen);
  (outcome_digest ~record sim, !expired, !retried, !fast_seen, sim)

let test_pinned_digest () =
  List.iter
    (fun (record, pinned) ->
      let digest, expired, retried, fast_seen, sim = run_digest ~record in
      let counter = Engine.Counters.get (Sched.counters sim) in
      check_int "one probe expiry" 1 expired;
      check_bool "probes retried" true (retried > 0);
      check_bool "work debt preempted" true (counter "sched.preemptions" > 0);
      check_bool "threads blocked" true (counter "sched.blocks" >= 2);
      check_bool "fast slices in both runs" true fast_seen;
      (* tids 5 and 6: a real block charges [block_ns], an absorbed
         token nothing *)
      let cpu tid = List.find_map (fun (t, _, c) -> if t = tid then Some c else None) in
      let report = Sched.thread_report sim in
      Alcotest.(check (option int)) "sleeper blocked" (Some digest_cfg.block_ns) (cpu 5 report);
      Alcotest.(check (option int)) "early wakeup absorbed" (Some 0) (cpu 6 report);
      Alcotest.(check string)
        (if record then "digest with the schedule" else "digest with fast slices")
        pinned digest)
    [ (true, "6b73a311aab3e495964e09d1ab68c9af"); (false, "f23eb64e8348a343e9979af752fb202a") ]

(* {2 Pinned fault-path run}

   The same kind of pin for the host-side mutations of the dispatch
   state that happen outside the dispatched processor: timers kill a
   thread in its processor's continuation slot and one queued behind
   another thread, and stall an idle processor and a busy one; forks,
   wakeups and joins cross processors. The run then replays its own
   recorded schedule, which forces every dispatch through the
   controlled path. *)

let fault_cfg = { Config.default with Config.processors = 4; quantum_ns = None }

(* tids: 0 main (proc 0), 1 sleeper (proc 3), 2 spinner (proc 1, killed
   in its continuation slot), 3 hog (proc 2), 4 queued (proc 2, killed
   behind the hog). *)
let fault_program () =
  let word = Ops.alloc1 ~node:0 () in
  let sleeper =
    spawn ~proc:3 (fun () ->
        Ops.block ();
        ignore (Ops.fetch_and_add word 1);
        Ops.work 20_000)
  in
  let churn n =
    for _ = 1 to n do
      ignore (Ops.fetch_and_add word 1);
      Ops.work 5_000
    done
  in
  let spinner = spawn ~proc:1 (fun () -> churn 1_000) in
  let hog =
    spawn ~proc:2 (fun () ->
        churn 300;
        Ops.wakeup sleeper;
        churn 10)
  in
  let queued = spawn ~proc:2 (fun () -> churn 10) in
  List.iter Ops.join [ spinner; queued; hog; sleeper ];
  churn 20

(* Arms the four fault timers; [seen] collects, per timer, whether the
   target processor held the threads it is meant to (its slot plus
   queue length). *)
let arm_faults sim seen =
  let at_time at expect_len pid fault =
    Sched.add_timer sim ~at (fun () ->
        seen := (Sched.runq_length sim pid = expect_len) :: !seen;
        fault ())
  in
  at_time 800_000 0 3 (fun () -> Sched.stall_processor sim ~proc:3 ~ns:4_000_000);
  at_time 1_000_000 1 1 (fun () -> ignore (Sched.kill_thread sim ~tid:2 ~at:1_000_000 : bool));
  at_time 1_200_000 2 2 (fun () -> Sched.stall_processor sim ~proc:2 ~ns:100_000);
  at_time 1_500_000 2 2 (fun () -> ignore (Sched.kill_thread sim ~tid:4 ~at:1_500_000 : bool))

let run_faulted control =
  let sim = Sched.create fault_cfg in
  let seen = ref [] in
  arm_faults sim seen;
  Sched.set_record_schedule sim true;
  Option.iter (Sched.set_schedule_control sim) control;
  Sched.run sim fault_program;
  (outcome_digest ~record:true sim, List.rev !seen, sim)

let test_pinned_fault_digest () =
  let digest, seen, sim = run_faulted None in
  let counter = Engine.Counters.get (Sched.counters sim) in
  Alcotest.(check (list bool)) "faults hit their targets" [ true; true; true; true ] seen;
  check_int "two kills" 2 (counter "sched.kills");
  check_int "one wakeup" 1 (counter "sched.wakeups");
  let schedule = Sched.recorded_schedule sim in
  let replay_digest, replay_seen, replay = run_faulted (Some schedule) in
  check_bool "replay is faithful" true (Sched.replay_faithful replay schedule);
  Alcotest.(check (list bool)) "replay faults hit their targets" seen replay_seen;
  Alcotest.(check string) "replay reproduces the run" digest replay_digest;
  Alcotest.(check string) "fault-path digest" "e09170c85ddd25e01e92ba81e85e01aa" digest

let suite =
  [
    Alcotest.test_case "pinned multi-runnable digest" `Quick test_pinned_digest;
    Alcotest.test_case "pinned fault-path digest" `Quick test_pinned_fault_digest;
    Alcotest.test_case "schedule log round trip" `Quick test_schedule_log_round_trip;
    Alcotest.test_case "busy accounting" `Quick test_busy_accounting;
    Alcotest.test_case "thread report" `Quick test_thread_report;
    Alcotest.test_case "round-robin placement" `Quick test_round_robin_placement;
    Alcotest.test_case "bad processor" `Quick test_fork_bad_processor;
    Alcotest.test_case "event limit" `Quick test_event_limit;
    Alcotest.test_case "trace hook" `Quick test_trace_hook;
    Alcotest.test_case "non-preemptive continuation" `Quick test_nonpreemptive_continuation;
    Alcotest.test_case "quantum preempts" `Quick test_quantum_preempts_short_ops;
    Alcotest.test_case "yield interleaves" `Quick test_yield_releases_processor;
  ]
