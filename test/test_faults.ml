(* Fault injection and recovery: virtual-time timers, fault plans and
   the injector, kill/stall/degrade semantics, timed locks, backoff
   retries, adaptation guardrails, the watchdog, structured run
   outcomes, and the chaos harness's determinism. *)

open Butterfly
open Cthreads

let cfg = { Config.default with Config.processors = 4 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* -- fault plans ------------------------------------------------- *)

let test_plan_roundtrip () =
  let spec =
    "kill@250000:tid=4;mem-degrade@40000:node=3,factor=8,until=900000;\
     proc-stall@60000:proc=1,ns=50000;mem-stuck@70000:node=0,until=99000;\
     holder-delay@80000:lock=*,ns=12000"
  in
  let plan = Faults.Fault_plan.of_string spec in
  check_int "five faults" 5 (List.length plan);
  (* of_string sorts by time; to_string/of_string is a fixpoint *)
  let printed = Faults.Fault_plan.to_string plan in
  check_bool "sorted: degrade first"
    true
    (String.length printed > 11 && String.sub printed 0 11 = "mem-degrade");
  check_string "round trip" printed
    (Faults.Fault_plan.to_string (Faults.Fault_plan.of_string printed));
  check_string "empty plan" "" (Faults.Fault_plan.to_string []);
  check_int "empty string parses to empty plan" 0
    (List.length (Faults.Fault_plan.of_string "  "));
  Alcotest.check_raises "unknown kind" (Failure "Fault_plan.of_string: unknown fault kind \"zap\"")
    (fun () -> ignore (Faults.Fault_plan.of_string "zap@10:tid=1"));
  check_bool "missing argument rejected" true
    (match Faults.Fault_plan.of_string "kill@10:pid=1" with
    | _ -> false
    | exception Failure _ -> true)

let test_plan_generate_deterministic () =
  let g seed = Faults.Fault_plan.generate ~seed ~cfg ~horizon_ns:3_000_000 () in
  check_string "same seed, same plan"
    (Faults.Fault_plan.to_string (g 42))
    (Faults.Fault_plan.to_string (g 42));
  check_bool "different seeds diverge" true
    (Faults.Fault_plan.to_string (g 1) <> Faults.Fault_plan.to_string (g 2));
  List.iter
    (fun { Faults.Fault_plan.at_ns; _ } ->
      check_bool "fault times inside the horizon" true
        (at_ns >= 300_000 && at_ns <= 3_000_000))
    (g 7)

(* -- scheduler timers -------------------------------------------- *)

let test_timers_fire_in_time_then_insertion_order () =
  let sim = Sched.create cfg in
  let order = ref [] in
  let fire tag = order := tag :: !order in
  Sched.add_timer sim ~at:50_000 (fun () -> fire "late");
  Sched.add_timer sim ~at:10_000 (fun () -> fire "early-a");
  Sched.add_timer sim ~at:10_000 (fun () -> fire "early-b");
  check_int "three pending" 3 (Sched.pending_timers sim);
  Sched.run sim (fun () -> Ops.work 100_000);
  check_int "none pending" 0 (Sched.pending_timers sim);
  Alcotest.(check (list string))
    "time order, then insertion order"
    [ "early-a"; "early-b"; "late" ]
    (List.rev !order)

let test_unreached_timers_are_discarded () =
  (* A fault scheduled beyond the run must not perturb the final
     clocks: the run ends when the workload ends. *)
  let final_of timers =
    let sim = Sched.create cfg in
    if timers then Sched.add_timer sim ~at:50_000_000 (fun () -> ());
    Sched.run sim (fun () -> Ops.work 10_000);
    Sched.final_time sim
  in
  check_int "same final time" (final_of false) (final_of true)

(* -- fault primitives -------------------------------------------- *)

let test_kill_thread_wakes_joiner_and_strands_lock () =
  let sim = Sched.create cfg in
  let joined = ref false and still_held = ref None in
  Sched.add_timer sim ~at:1_000_000 (fun () ->
      check_bool "kill applied" true (Sched.kill_thread sim ~tid:1 ~at:1_000_000));
  Sched.run sim (fun () ->
      let lk = Locks.Lock.create ~home:0 Locks.Lock.Spin in
      let victim =
        Cthread.fork ~proc:1 (fun () ->
            Locks.Lock_core.lock lk;
            Cthread.work 50_000_000;
            (* never reached: killed mid-section *)
            Locks.Lock_core.unlock lk)
      in
      Cthread.join victim;
      joined := true;
      still_held := Some (not (Locks.Lock_core.try_lock lk)));
  check_bool "joiner woken by the kill" true !joined;
  check_bool "lock stranded held" (Some true = !still_held) true;
  check_int "kill counted" 1 (Engine.Counters.get (Sched.counters sim) "sched.kills");
  check_bool "second kill is a no-op" false (Sched.kill_thread sim ~tid:1 ~at:2_000_000)

let test_stall_and_penalty_slow_the_run () =
  let final ~stall ~penalty =
    let sim = Sched.create cfg in
    if stall then Sched.add_timer sim ~at:10_000 (fun () ->
        Sched.stall_processor sim ~proc:1 ~ns:2_000_000);
    if penalty then Sched.add_timer sim ~at:10_000 (fun () ->
        check_bool "penalty accepted" true (Sched.penalize_thread sim ~tid:1 ~ns:3_000_000));
    Sched.run sim (fun () ->
        let t = Cthread.fork ~proc:1 (fun () -> Cthread.work 500_000) in
        Cthread.join t);
    Sched.final_time sim
  in
  let base = final ~stall:false ~penalty:false in
  check_bool "processor stall delays completion" true (final ~stall:true ~penalty:false > base);
  check_bool "thread penalty delays completion" true (final ~stall:false ~penalty:true > base)

let test_memory_degradation () =
  let final degrade =
    let sim = Sched.create cfg in
    if degrade then Sched.add_timer sim ~at:0 (fun () ->
        Memory.set_degrade_factor (Sched.memory sim) ~node:0 8);
    Sched.run sim (fun () ->
        let w = Ops.alloc1 ~node:0 () in
        let t =
          Cthread.fork ~proc:2 (fun () ->
              for _ = 1 to 50 do
                ignore (Ops.read w)
              done)
        in
        Cthread.join t);
    Sched.final_time sim
  in
  check_bool "degraded module slows the reader" true (final true > final false);
  let sim = Sched.create cfg in
  check_int "factor readable" 1 (Memory.degrade_factor (Sched.memory sim) ~node:2);
  Alcotest.check_raises "factor < 1 rejected"
    (Invalid_argument "Memory.set_degrade_factor: factor must be >= 1") (fun () ->
      Memory.set_degrade_factor (Sched.memory sim) ~node:0 0)

(* -- the injector ------------------------------------------------ *)

let run_fig_workload sim =
  Sched.run sim (fun () ->
      let lk = Locks.Lock.create ~home:0 (Locks.Lock.Combined 8) in
      let ts =
        List.init 3 (fun i ->
            Cthread.fork ~proc:(i + 1) (fun () ->
                for _ = 1 to 5 do
                  Locks.Lock_core.lock lk;
                  Cthread.work 3_000;
                  Locks.Lock_core.unlock lk;
                  Cthread.work 2_000
                done))
      in
      Cthread.join_all ts)

let test_empty_plan_is_invisible () =
  let fingerprint inject =
    let sim = Sched.create cfg in
    let inj = if inject then Some (Faults.Injector.install sim ~plan:[]) else None in
    run_fig_workload sim;
    (match inj with
    | Some inj -> check_int "nothing applied" 0 (List.length (Faults.Injector.applied inj))
    | None -> ());
    ( Sched.final_time sim,
      Engine.Counters.get (Sched.counters sim) "sched.events",
      Sched.thread_report sim )
  in
  check_bool "empty plan: bit-for-bit the unperturbed run" true
    (fingerprint false = fingerprint true)

let test_injector_applies_and_logs () =
  let sim = Sched.create cfg in
  let plan =
    Faults.Fault_plan.of_string
      "mem-degrade@20000:node=0,factor=4,until=400000;holder-delay@0:lock=*,ns=700000"
  in
  let inj = Faults.Injector.install sim ~plan in
  run_fig_workload sim;
  let log = Faults.Injector.applied inj in
  check_bool "degrade logged" true
    (List.exists (fun l -> contains l "mem-degrade node=0 factor=4") log);
  check_bool "degrade restored" true
    (List.exists (fun l -> contains l "mem-degrade node=0 restored") log);
  check_bool "holder delayed exactly once" true
    (1 = List.length (List.filter (fun l -> contains l "holder-delay") log));
  check_bool "holder delay stretches the run" true (Sched.final_time sim > 700_000)

let test_injected_run_is_deterministic () =
  let fingerprint () =
    let sim = Sched.create cfg in
    let plan =
      Faults.Fault_plan.generate ~seed:11 ~cfg ~horizon_ns:200_000 ()
    in
    let inj = Faults.Injector.install sim ~plan in
    run_fig_workload sim;
    (Sched.final_time sim, Faults.Injector.applied inj)
  in
  check_bool "same plan, same perturbed run" true (fingerprint () = fingerprint ())

(* -- timed locks --------------------------------------------------- *)

let test_lock_timeout () =
  let holder_blocked = ref None and acquired_after = ref None and stats = ref None in
  let sim = Sched.create cfg in
  Sched.run sim (fun () ->
      let waiting = Locks.Waiting.pure_spin ~node:0 () in
      let lk =
        Locks.Lock_core.create ~home:0 ~impl:(Central (waiting, Locks.Lock_costs.spin)) ()
      in
      check_bool "uncontended timed acquire" true
        (Locks.Lock_core.lock_timeout lk ~deadline_ns:(Ops.now () + 1_000));
      let waiter =
        Cthread.fork ~proc:1 (fun () ->
            holder_blocked :=
              Some (Locks.Lock_core.lock_timeout lk ~deadline_ns:(Ops.now () + 30_000)))
      in
      Cthread.work 300_000;
      Locks.Lock_core.unlock lk;
      Cthread.join waiter;
      let late =
        Cthread.fork ~proc:2 (fun () ->
            acquired_after :=
              Some (Locks.Lock_core.lock_timeout lk ~deadline_ns:(Ops.now () + 50_000));
            Locks.Lock_core.unlock lk)
      in
      Cthread.join late;
      stats := Some (Locks.Lock_core.stats lk));
  check_bool "contended waiter timed out" (Some false = !holder_blocked) true;
  check_bool "acquired once free" (Some true = !acquired_after) true;
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s -> check_int "one timeout recorded" 1 (Locks.Lock_stats.timeouts s)

(* -- guardrails ---------------------------------------------------- *)

let test_guardrail_clamp_and_fallback () =
  (* simple-adapt with its guard set directly, stepped one sample at a
     time. Threshold 2 sends any sample above 2 from budget 4 to pure
     blocking (0); budgets start at n = 4. Samples above 10 lie outside
     the clamp: they are pathological, feed only the guard and drive no
     transition; three in a row fall back to the initial budget, then
     two samples go uncounted. *)
  let module Spec = Adaptive_core.Policy.Spec in
  let params =
    { Locks.Spin_budget.waiting_threshold = 2; n = 4; spin_cap = 16; sample_period = 1 }
  in
  let spec = Locks.Spin_budget.policy_spec ~params () in
  let spec =
    {
      spec with
      Spec.s_guard =
        Some
          {
            Spec.g_clamp_lo = 0;
            g_clamp_hi = 10;
            g_limit = 3;
            g_cooldown = 2;
            g_fallback = spec.Spec.s_initial;
            g_fallback_label = "guardrail-fallback";
            g_fallback_cost = Locks.Lock_costs.configure_waiting_policy;
          };
    }
  in
  let budget = ref params.Locks.Spin_budget.n in
  (* One sample: apply whatever is decided, return its label. *)
  let feed = Spec_loop.steps spec ~cur:budget in
  (* 50 lies outside the clamp: it starts a streak and moves nothing. *)
  check_string "absurd sample drives no transition" "none" (feed 50);
  check_int "budget unmoved" 4 !budget;
  (* a healthy sample resets the streak and adapts: budget 4 + n *)
  check_string "healthy sample adapts" "combined(8)" (feed 2);
  check_string "streak restarts" "none" (feed 50);
  check_string "second pathological sample" "none" (feed 50);
  check_string "third clamped sample in a row must fall back" "guardrail-fallback"
    (feed 99);
  check_int "fallback restores the initial budget" 4 !budget;
  (* cooldown: the next two pathological samples do not count, and the
     fallback stays where it landed *)
  check_string "cooldown must suppress fallback" "none" (feed 99);
  check_string "cooldown still suppresses" "none" (feed 99);
  (* counting resumes: a fresh streak of three falls back again *)
  check_string "streak 1 after cooldown" "none" (feed 99);
  check_string "streak 2 after cooldown" "none" (feed 99);
  check_string "streak resumes after cooldown" "guardrail-fallback" (feed 99);
  check_int "second fallback restores the initial budget" 4 !budget

(* -- watchdog ------------------------------------------------------ *)

let test_watchdog_turns_stall_into_structured_abort () =
  let sim = Sched.create cfg in
  let wd = ref None in
  let outcome =
    Sched.run_outcome sim (fun () ->
        wd := Some (Monitoring.Watchdog.start ~sched:sim ());
        let stuck = Cthread.fork ~proc:1 (fun () -> Cthread.block ()) in
        Cthread.join stuck)
  in
  (match outcome with
  | Sched.Aborted { reason = Sched.Stop_requested msg; diagnostics } ->
    check_bool "watchdog named in reason" true (contains msg "watchdog");
    check_bool "diagnostics dumped" true (String.length diagnostics > 0);
    check_bool "diagnostics list the blocked thread" true (contains diagnostics "blocked")
  | _ -> Alcotest.fail "expected a watchdog abort");
  match !wd with
  | Some wd ->
    check_bool "watchdog fired" true (Monitoring.Watchdog.fired wd);
    check_bool "watchdog polled" true (Monitoring.Watchdog.polls wd >= 3)
  | None -> Alcotest.fail "watchdog missing"

let test_watchdog_quiet_on_healthy_run () =
  (* One unpreempted work slice of 3 ms, longer than the watchdog's 5
     stale polls of 200 µs: the sibling's cpu is charged at dispatch, so
     only the watchdog's check for queued siblings keeps these polls
     from counting as a stall. *)
  let sim = Sched.create { cfg with Config.quantum_ns = None } in
  let polls = ref 0 and fired = ref true in
  let outcome =
    Sched.run_outcome sim (fun () ->
        let wd = Monitoring.Watchdog.start ~sched:sim () in
        let t = Cthread.fork ~proc:1 (fun () -> Cthread.work 3_000_000) in
        Cthread.join t;
        Monitoring.Watchdog.stop wd;
        polls := Monitoring.Watchdog.polls wd;
        fired := Monitoring.Watchdog.fired wd)
  in
  check_bool "healthy run completes" true (outcome = Sched.Completed);
  check_bool "watchdog outlasted its stale limit" true (!polls >= 5);
  check_bool "watchdog did not fire" false !fired

(* -- structured outcomes ------------------------------------------- *)

exception Boom of int

let test_thread_crash_payload_preserved () =
  let sim = Sched.create cfg in
  (match
     Sched.run sim (fun () ->
         let t = Cthread.fork ~name:"bomber" ~proc:1 (fun () -> raise (Boom 42)) in
         Cthread.join t)
   with
  | () -> Alcotest.fail "expected Thread_crash"
  | exception Sched.Thread_crash (name, Boom n) ->
    check_string "crashing thread named" "bomber" name;
    check_int "original exception payload" 42 n
  | exception _ -> Alcotest.fail "wrong exception");
  let sim = Sched.create cfg in
  match
    Sched.run_outcome sim (fun () ->
        let t = Cthread.fork ~name:"bomber" ~proc:1 (fun () -> raise (Boom 7)) in
        Cthread.join t)
  with
  | Sched.Aborted { reason = Sched.Crashed (name, Boom n); diagnostics } ->
    check_string "outcome carries the thread" "bomber" name;
    check_int "outcome carries the payload" 7 n;
    check_bool "diagnostics attached" true (String.length diagnostics > 0)
  | _ -> Alcotest.fail "expected Crashed outcome"

let test_event_limit_outcome () =
  let sim = Sched.create { cfg with Config.max_events = 200 } in
  match
    Sched.run_outcome sim (fun () ->
        for _ = 1 to 10_000 do
          Ops.work 100
        done)
  with
  | Sched.Aborted { reason = Sched.Event_limit; diagnostics } ->
    check_bool "diagnostics mention the event count" true (contains diagnostics "event");
    check_string "reason renders" "event limit exceeded"
      (Sched.abort_reason_message Sched.Event_limit)
  | _ -> Alcotest.fail "expected Event_limit outcome"

let test_deadlock_payload_names_sites_and_held_locks () =
  let sim = Sched.create cfg in
  (* Any annotation subscriber switches the lock-span bookkeeping on. *)
  Sched.add_annot_hook sim (fun _ -> ());
  (match
     Sched.run sim (fun () ->
         let l1 = Locks.Lock.create ~name:"alpha" ~home:0 Locks.Lock.Blocking in
         let l2 = Locks.Lock.create ~name:"beta" ~home:1 Locks.Lock.Blocking in
         let a =
           Cthread.fork ~name:"a" ~proc:1 (fun () ->
               Locks.Lock_core.lock l1;
               Cthread.work 50_000;
               Locks.Lock_core.lock l2;
               Locks.Lock_core.unlock l2;
               Locks.Lock_core.unlock l1)
         in
         let b =
           Cthread.fork ~name:"b" ~proc:2 (fun () ->
               Locks.Lock_core.lock l2;
               Cthread.work 50_000;
               Locks.Lock_core.lock l1;
               Locks.Lock_core.unlock l1;
               Locks.Lock_core.unlock l2)
         in
         Cthread.join a;
         Cthread.join b)
   with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sched.Deadlock msg ->
    check_bool "names thread a" true (contains msg "a(#");
    check_bool "a blocked at beta" true (contains msg "blocked at beta");
    check_bool "a holds alpha" true (contains msg "holding [alpha]");
    check_bool "b blocked at alpha" true (contains msg "blocked at alpha");
    check_bool "b holds beta" true (contains msg "holding [beta]"));
  (* and the structured variant reports the same through run_outcome *)
  let sim2 = Sched.create cfg in
  match
    Sched.run_outcome sim2 (fun () ->
        let t = Cthread.fork ~proc:1 (fun () -> Cthread.block ()) in
        Cthread.join t)
  with
  | Sched.Aborted { reason = Sched.Deadlocked _; diagnostics } ->
    check_bool "dump shows machine state" true (contains diagnostics "machine at t=")
  | _ -> Alcotest.fail "expected Deadlocked outcome"

(* -- chaos harness ------------------------------------------------- *)

let test_chaos_run_deterministic_and_invariant_checked () =
  let scenario =
    match
      List.find_opt
        (fun s -> s.Analysis_suite.scenario_name = "primitives")
        (Analysis_suite.shipped ())
    with
    | Some s -> s
    | None -> Alcotest.fail "primitives scenario missing"
  in
  let r1 = Chaos.run_scenario ~scenario ~seed:1 () in
  let r2 = Chaos.run_scenario ~scenario ~seed:1 () in
  check_bool "same seed, same chaos result" true (r1 = r2);
  check_bool "outcome structured" true
    (r1.Chaos.outcome = "completed" || r1.Chaos.diagnostics <> None);
  check_bool "run passed its invariants" true (Chaos.passed r1);
  (* replay of the dumped plan reproduces the run *)
  let replayed =
    Chaos.replay ~scenario ~plan:(Faults.Fault_plan.of_string r1.Chaos.plan)
  in
  check_string "replay reproduces the injection log"
    (String.concat "|" r1.Chaos.injected)
    (String.concat "|" replayed.Chaos.injected);
  check_int "replay reproduces the final clock" r1.Chaos.final_time_ns
    replayed.Chaos.final_time_ns

let find_scenario name =
  match
    List.find_opt
      (fun s -> s.Analysis_suite.scenario_name = name)
      (Analysis_suite.all ())
  with
  | Some s -> s
  | None -> Alcotest.failf "%s scenario missing" name

(* A failing run is re-executed under its recorded schedule and
   carries that schedule once the failure reproduces. *)
let test_chaos_pins_failing_schedule () =
  let r =
    Chaos.replay ~scenario:(find_scenario "buggy-exit-holding")
      ~plan:(Faults.Fault_plan.of_string "")
  in
  check_bool "kill-free held-lock invariant fails" true
    (List.mem "lock held at exit on a kill-free completed run" r.Chaos.invariant_failures);
  check_bool "failure carries its pinned schedule" true (r.Chaos.pinned_schedule <> None)

(* Byte pin of one event-budget abort (985,112 recorded accesses, one
   sanitizer diagnostic): the packed trace and schedule log must leave
   its JSON unchanged. *)
let test_chaos_budget_abort_bytes () =
  let r =
    Chaos.run_scenario ~swap_faults:true ~scenario:(find_scenario "primitives") ~seed:2 ()
  in
  check_string "aborted" "aborted" r.Chaos.outcome;
  check_int "accesses" 985_112 r.Chaos.accesses;
  check_string "JSON md5" "7caf5e1e85373587c445b67af9ee6704"
    (Digest.to_hex (Digest.string (Chaos.to_json [ r ])))

let test_chaos_json_shape () =
  let scenario = List.hd (Analysis_suite.shipped ()) in
  let results = Chaos.sweep ~domains:1 ~seeds:[ 1; 2 ] ~scenarios:[ scenario ] () in
  check_int "two runs" 2 (List.length results);
  let json = Chaos.to_json results in
  check_bool "json has totals" true (contains json "\"total_runs\": 2");
  check_bool "json carries plans" true (contains json "\"plan\":");
  check_bool "json carries outcomes" true (contains json "\"outcome\":");
  check_bool "summary counts runs" true (contains (Chaos.summary_line results) "2 runs")

let suite =
  [
    Alcotest.test_case "fault plan round-trips" `Quick test_plan_roundtrip;
    Alcotest.test_case "fault plan generation deterministic" `Quick
      test_plan_generate_deterministic;
    Alcotest.test_case "timers fire in order" `Quick
      test_timers_fire_in_time_then_insertion_order;
    Alcotest.test_case "unreached timers discarded" `Quick
      test_unreached_timers_are_discarded;
    Alcotest.test_case "kill wakes joiner, strands lock" `Quick
      test_kill_thread_wakes_joiner_and_strands_lock;
    Alcotest.test_case "stalls and penalties slow the run" `Quick
      test_stall_and_penalty_slow_the_run;
    Alcotest.test_case "memory degradation" `Quick test_memory_degradation;
    Alcotest.test_case "empty plan is invisible" `Quick test_empty_plan_is_invisible;
    Alcotest.test_case "injector applies and logs" `Quick test_injector_applies_and_logs;
    Alcotest.test_case "injected run deterministic" `Quick
      test_injected_run_is_deterministic;
    Alcotest.test_case "lock_timeout" `Quick test_lock_timeout;
    Alcotest.test_case "guardrail clamp and fallback" `Quick
      test_guardrail_clamp_and_fallback;
    Alcotest.test_case "watchdog aborts a stalled run" `Quick
      test_watchdog_turns_stall_into_structured_abort;
    Alcotest.test_case "watchdog quiet on healthy run" `Quick
      test_watchdog_quiet_on_healthy_run;
    Alcotest.test_case "thread crash payload preserved" `Quick
      test_thread_crash_payload_preserved;
    Alcotest.test_case "event limit outcome" `Quick test_event_limit_outcome;
    Alcotest.test_case "deadlock payload enriched" `Quick
      test_deadlock_payload_names_sites_and_held_locks;
    Alcotest.test_case "chaos run deterministic" `Quick
      test_chaos_run_deterministic_and_invariant_checked;
    Alcotest.test_case "chaos sweep and json" `Quick test_chaos_json_shape;
    Alcotest.test_case "chaos pins a failing schedule" `Quick
      test_chaos_pins_failing_schedule;
    Alcotest.test_case "chaos budget-abort bytes" `Quick test_chaos_budget_abort_bytes;
  ]
