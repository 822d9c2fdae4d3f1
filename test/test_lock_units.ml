(* Unit tests of the lock building blocks: the waiting-policy
   attributes, the scheduler components, and the simple-adapt budget
   state machine. *)

open Butterfly

let cfg = { Config.default with Config.processors = 4 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Waiting-policy attribute table (paper section 5.1). *)

let test_waiting_describe () =
  let (_ : Sched.t) =
    run (fun () ->
        check_string "pure spin" "pure spin" (Locks.Waiting.describe (Locks.Waiting.pure_spin ()));
        check_string "backoff" "spin (back-off)"
          (Locks.Waiting.describe (Locks.Waiting.backoff_spin ()));
        check_string "pure sleep" "pure sleep"
          (Locks.Waiting.describe (Locks.Waiting.pure_sleep ()));
        check_string "combined" "mixed sleep/spin"
          (Locks.Waiting.describe (Locks.Waiting.combined ~spins:10 ()));
        check_string "conditional" "conditional sleep/spin"
          (Locks.Waiting.describe (Locks.Waiting.conditional ~timeout_ns:1_000 ())))
  in
  ()

let test_waiting_freeze () =
  let raised = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let w = Locks.Waiting.pure_spin () in
        Locks.Waiting.freeze w;
        try Adaptive_core.Attribute.set w.Locks.Waiting.spin_count 3
        with Adaptive_core.Attribute.Immutable_attribute _ -> raised := true)
  in
  check_bool "frozen attribute rejects set" true !raised

(* Lock scheduler components. *)

let w tid prio = { Locks.Lock_sched.tid; prio; enqueued_at = 0 }

let test_sched_fcfs () =
  let q = Locks.Lock_sched.create Locks.Lock_sched.Fcfs in
  Locks.Lock_sched.register q (w 1 5);
  Locks.Lock_sched.register q (w 2 9);
  Locks.Lock_sched.register q (w 3 1);
  check_int "waiting" 3 (Locks.Lock_sched.waiting q);
  let next () =
    match Locks.Lock_sched.release_next q ~successor:None with
    | Some x -> x.Locks.Lock_sched.tid
    | None -> -1
  in
  check_int "first in first out" 1 (next ());
  check_int "second" 2 (next ());
  check_int "third" 3 (next ());
  check_bool "empty" true (Locks.Lock_sched.is_empty q)

let test_sched_priority () =
  let q = Locks.Lock_sched.create Locks.Lock_sched.Priority in
  Locks.Lock_sched.register q (w 1 5);
  Locks.Lock_sched.register q (w 2 9);
  Locks.Lock_sched.register q (w 3 9);
  Locks.Lock_sched.register q (w 4 1);
  let next () =
    match Locks.Lock_sched.release_next q ~successor:None with
    | Some x -> x.Locks.Lock_sched.tid
    | None -> -1
  in
  check_int "highest priority" 2 (next ());
  check_int "fifo among equals" 3 (next ());
  check_int "then lower" 1 (next ());
  check_int "lowest last" 4 (next ())

let test_sched_handoff () =
  let q = Locks.Lock_sched.create Locks.Lock_sched.Handoff in
  Locks.Lock_sched.register q (w 1 0);
  Locks.Lock_sched.register q (w 2 0);
  Locks.Lock_sched.register q (w 3 0);
  let next successor =
    match Locks.Lock_sched.release_next q ~successor with
    | Some x -> x.Locks.Lock_sched.tid
    | None -> -1
  in
  check_int "successor honoured" 2 (next (Some 2));
  check_int "unregistered successor falls back to FCFS" 1 (next (Some 99));
  check_int "no successor = FCFS" 3 (next None)

let test_sched_cancel () =
  let q = Locks.Lock_sched.create Locks.Lock_sched.Fcfs in
  Locks.Lock_sched.register q (w 1 0);
  Locks.Lock_sched.register q (w 2 0);
  Locks.Lock_sched.cancel q 1;
  check_int "one left" 1 (Locks.Lock_sched.waiting q);
  (match Locks.Lock_sched.release_next q ~successor:None with
  | Some x -> check_int "survivor" 2 x.Locks.Lock_sched.tid
  | None -> Alcotest.fail "expected a waiter")

let test_sched_kind_change_keeps_queue () =
  let q = Locks.Lock_sched.create Locks.Lock_sched.Fcfs in
  Locks.Lock_sched.register q (w 1 1);
  Locks.Lock_sched.register q (w 2 9);
  Locks.Lock_sched.set_kind q Locks.Lock_sched.Priority;
  check_int "entries kept" 2 (Locks.Lock_sched.waiting q);
  (match Locks.Lock_sched.release_next q ~successor:None with
  | Some x -> check_int "now priority order" 2 x.Locks.Lock_sched.tid
  | None -> Alcotest.fail "expected a waiter")

(* Spin-budget state machine (simple-adapt), as the running objects
   drive it: the spec's step, fed one waiting count at a time. [feed]
   returns the new budget when the policy reconfigured. *)

let budget_params =
  { Locks.Spin_budget.waiting_threshold = 3; n = 4; spin_cap = 16; sample_period = 1 }

let budget () =
  let spins = ref 4 in
  let step =
    Spec_loop.steps (Locks.Spin_budget.policy_spec ~params:budget_params ()) ~cur:spins
  in
  let feed ~waiting = if step waiting = "none" then None else Some !spins in
  (spins, feed)

let mode v = Locks.Spin_budget.mode_of ~cap:16 v

let test_budget_zero_waiters_jumps_to_cap () =
  let spins, feed = budget () in
  check_bool "changed" true (feed ~waiting:0 <> None);
  check_int "at cap" 16 !spins;
  check_string "pure spin" "pure spin" (mode !spins)

let test_budget_low_contention_increases () =
  let spins, feed = budget () in
  check_bool "increase" true (feed ~waiting:2 = Some 8);
  check_bool "again" true (feed ~waiting:3 = Some 12);
  check_string "combined" "combined(12)" (mode !spins)

let test_budget_high_contention_decreases_to_blocking () =
  let spins, feed = budget () in
  check_bool "minus 2n" true (feed ~waiting:10 = Some 0);
  check_string "pure blocking" "pure blocking" (mode !spins);
  check_bool "no further change" true (feed ~waiting:10 = None)

let test_budget_saturates_at_cap () =
  let _, feed = budget () in
  ignore (feed ~waiting:0);
  check_bool "no change at cap under low contention" true (feed ~waiting:1 = None)

let test_budget_apply_sets_attributes () =
  let (_ : Sched.t) =
    run (fun () ->
        let b = Locks.Spin_budget.create budget_params in
        let w = Locks.Waiting.combined ~spins:4 () in
        Locks.Spin_budget.set b 16;
        Locks.Spin_budget.apply b w;
        check_int "spin forever" max_int (Adaptive_core.Attribute.get w.Locks.Waiting.spin_count);
        check_bool "no sleep" false (Adaptive_core.Attribute.get w.Locks.Waiting.sleep);
        Locks.Spin_budget.set b 0;
        Locks.Spin_budget.apply b w;
        check_bool "sleep on" true (Adaptive_core.Attribute.get w.Locks.Waiting.sleep))
  in
  ()

let test_budget_validates () =
  check_bool "bad n rejected" true
    (try
       ignore (Locks.Spin_budget.create { budget_params with n = 0 });
       false
     with Invalid_argument _ -> true)

(* Lock stats. *)

let test_stats_accounting () =
  let s = Locks.Lock_stats.create "x" in
  Locks.Lock_stats.on_lock s;
  Locks.Lock_stats.on_lock s;
  Locks.Lock_stats.on_contended s;
  Locks.Lock_stats.on_acquired s ~wait_ns:100;
  Locks.Lock_stats.on_acquired s ~wait_ns:300;
  check_int "locks" 2 (Locks.Lock_stats.lock_calls s);
  check_int "max wait" 300 (Locks.Lock_stats.max_wait_ns s);
  Alcotest.(check (float 0.01)) "contention ratio" 0.5 (Locks.Lock_stats.contention_ratio s);
  Alcotest.(check (float 0.01)) "mean wait over contended" 400.0
    (Locks.Lock_stats.mean_wait_ns s)

let test_stats_trace_disabled_by_default () =
  let s = Locks.Lock_stats.create "x" in
  check_bool "no trace" true (Locks.Lock_stats.trace s = None);
  (* Recording into a disabled trace is a no-op, not an error. *)
  Locks.Lock_stats.record_waiting s ~now:5 ~waiting:1

let suite =
  [
    Alcotest.test_case "waiting describe" `Quick test_waiting_describe;
    Alcotest.test_case "waiting freeze" `Quick test_waiting_freeze;
    Alcotest.test_case "sched FCFS" `Quick test_sched_fcfs;
    Alcotest.test_case "sched priority" `Quick test_sched_priority;
    Alcotest.test_case "sched handoff" `Quick test_sched_handoff;
    Alcotest.test_case "sched cancel" `Quick test_sched_cancel;
    Alcotest.test_case "sched kind change" `Quick test_sched_kind_change_keeps_queue;
    Alcotest.test_case "budget: zero waiters" `Quick test_budget_zero_waiters_jumps_to_cap;
    Alcotest.test_case "budget: low contention" `Quick test_budget_low_contention_increases;
    Alcotest.test_case "budget: high contention" `Quick
      test_budget_high_contention_decreases_to_blocking;
    Alcotest.test_case "budget: cap saturation" `Quick test_budget_saturates_at_cap;
    Alcotest.test_case "budget: apply" `Quick test_budget_apply_sets_attributes;
    Alcotest.test_case "budget: validation" `Quick test_budget_validates;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "stats trace off" `Quick test_stats_trace_disabled_by_default;
  ]
