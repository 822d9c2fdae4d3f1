(* Predictive-analysis tests: the weak-causality predictor must find
   the prediction-only seeded bugs (which the observed-trace
   sanitizers provably miss), witness replay must promote them to
   Confirmed with byte-identical replayable schedules, and the
   predictor must stay quiet where reorderings are impossible (gate
   locks, join-ordered threads, the clean shipped catalogue). *)

open Butterfly

let cfg ?(processors = 4) ?(seed = 11) () =
  { Config.default with Config.processors; seed }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rules_of (pv : Analysis.predictive) =
  List.map (fun p -> p.Analysis.rule) pv.Analysis.predictions

let confirmed_rules (pv : Analysis.predictive) =
  List.map (fun p -> p.Analysis.rule) (Analysis.confirmed pv)

(* --- the predictor on the prediction-only seeded bugs ------------- *)

let test_hidden_race_predicted () =
  let pv = Analysis.check_predictive (cfg ()) Workloads.Buggy.hidden_race in
  check_bool "observed run is clean" true (Analysis.clean pv.Analysis.observed);
  check_bool "race predicted" true (List.mem "predicted-race" (rules_of pv))

let test_hidden_race_confirmed () =
  let pv =
    Analysis.check_predictive ~confirm:true (cfg ()) Workloads.Buggy.hidden_race
  in
  check_bool "race confirmed" true (List.mem "predicted-race" (confirmed_rules pv));
  List.iter
    (fun p ->
      match p.Analysis.witness with
      | Some w when w.Analysis.Witness.w_status = Analysis.Witness.Confirmed ->
        check_bool "confirmed witness replays byte-identically" true
          w.Analysis.Witness.w_replay_ok;
        check_bool "confirmed witness carries a schedule" true
          (w.Analysis.Witness.w_schedule <> [])
      | _ -> ())
    pv.Analysis.predictions

let test_stale_hint_race_confirmed () =
  let pv =
    Analysis.check_predictive ~confirm:true (cfg ())
      Workloads.Buggy.stale_hint_race
  in
  check_bool "observed run is clean" true (Analysis.clean pv.Analysis.observed);
  check_bool "stale-hint race confirmed" true
    (List.mem "predicted-race" (confirmed_rules pv))

let test_latent_deadlock_confirmed () =
  let pv =
    Analysis.check_predictive ~confirm:true (cfg ())
      Workloads.Buggy.latent_deadlock
  in
  (* the observed-trace graph sees the cycle as a potential... *)
  check_bool "observed cycle flagged" true
    (List.exists
       (fun d -> d.Analysis.Diag.rule = "lock-order-cycle")
       pv.Analysis.observed.Analysis.diags);
  check_bool "observed run does not deadlock" true
    (pv.Analysis.observed.Analysis.aborted = None);
  (* ...and the predictor proves it reachable *)
  check_bool "deadlock confirmed" true
    (List.mem "predicted-deadlock" (confirmed_rules pv))

let test_lost_wakeup_confirmed () =
  let pv =
    Analysis.check_predictive ~confirm:true (cfg ()) Workloads.Buggy.lost_wakeup
  in
  check_bool "observed run is clean" true (Analysis.clean pv.Analysis.observed);
  check_bool "lost wakeup confirmed" true
    (List.mem "predicted-lost-wakeup" (confirmed_rules pv))

(* --- negative controls -------------------------------------------- *)

let test_gated_order_not_predicted () =
  let pv = Analysis.check_predictive (cfg ()) Workloads.Buggy.gated_order in
  check_bool "observed graph still reports its false-positive cycle" true
    (List.exists
       (fun d -> d.Analysis.Diag.rule = "lock-order-cycle")
       pv.Analysis.observed.Analysis.diags);
  check_int "gate lock kills every prediction" 0
    (List.length pv.Analysis.predictions)

let test_join_ordered_inversion_not_predicted () =
  (* lock_order_inversion runs its two nestings in sequence, joined in
     between: the join edge is a hard edge, so no reordering can
     overlap them and the predictor must not cry deadlock. *)
  let pv =
    Analysis.check_predictive (cfg ()) Workloads.Buggy.lock_order_inversion
  in
  check_bool "join-ordered inversion not predicted" true
    (not (List.mem "predicted-deadlock" (rules_of pv)))

(* --- replay determinism ------------------------------------------- *)

let witness_schedules program =
  let pv = Analysis.check_predictive ~confirm:true (cfg ()) program in
  List.filter_map
    (fun p ->
      match p.Analysis.witness with
      | Some w when w.Analysis.Witness.w_status = Analysis.Witness.Confirmed ->
        Some w.Analysis.Witness.w_schedule
      | _ -> None)
    pv.Analysis.predictions

let test_schedules_stable_across_runs () =
  (* The whole pipeline is deterministic: two independent confirmations
     produce the same decision lists byte for byte. *)
  let a = witness_schedules Workloads.Buggy.hidden_race in
  let b = witness_schedules Workloads.Buggy.hidden_race in
  check_bool "same schedules on both runs" true (a = b);
  check_bool "at least one confirmed schedule" true (a <> [])

let test_schedule_replays_standalone () =
  (* A confirmed schedule is self-contained: feeding it to a fresh
     machine (no chooser, no holds) reproduces the exact dispatch
     sequence with no divergence and every decision consumed. *)
  match witness_schedules Workloads.Buggy.hidden_race with
  | [] -> Alcotest.fail "expected a confirmed schedule"
  | schedule :: _ ->
    let sim = Sched.create { (cfg ()) with Config.max_events = 4_000_000 } in
    Sched.set_schedule_control sim schedule;
    Sched.set_record_schedule sim true;
    (try Sched.run sim Workloads.Buggy.hidden_race with Sched.Deadlock _ -> ());
    check_bool "replay is faithful" true (Sched.replay_faithful sim schedule)

let suite =
  [
    Alcotest.test_case "hidden race predicted" `Quick test_hidden_race_predicted;
    Alcotest.test_case "hidden race confirmed" `Quick test_hidden_race_confirmed;
    Alcotest.test_case "stale hint race confirmed" `Quick
      test_stale_hint_race_confirmed;
    Alcotest.test_case "latent deadlock confirmed" `Quick
      test_latent_deadlock_confirmed;
    Alcotest.test_case "lost wakeup confirmed" `Quick test_lost_wakeup_confirmed;
    Alcotest.test_case "gated inversion not predicted" `Quick
      test_gated_order_not_predicted;
    Alcotest.test_case "join-ordered inversion not predicted" `Quick
      test_join_ordered_inversion_not_predicted;
    Alcotest.test_case "schedules stable across runs" `Quick
      test_schedules_stable_across_runs;
    Alcotest.test_case "schedule replays standalone" `Quick
      test_schedule_replays_standalone;
  ]
