(* Tests of the adaptive-object spine: the per-domain registry
   (enumeration, per-run reset, JSON determinism), the adaptive
   barrier/condition/semaphore, the guard state machine, trace
   adaptation annotations, and the sync-objects workload. *)

open Butterfly
open Cthreads
module Sensor = Adaptive_core.Sensor
module Policy = Adaptive_core.Policy
module Adaptive = Adaptive_core.Adaptive
module Registry = Adaptive_core.Registry

let cfg = { Config.default with Config.processors = 8 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A toy two-configuration spec: every observation flips between
   configurations 0 and 1 under [label]. *)
let toy_spec ~name ~kind label =
  let module Spec = Policy.Spec in
  let flip from =
    {
      Spec.t_from = from;
      t_cond = Spec.cond 0;
      t_target = 1 - from;
      t_label = label;
      t_repeats = 1;
      t_cost = Adaptive_core.Cost.reads_writes 1 1;
    }
  in
  {
    Spec.s_name = name;
    s_kind = kind;
    s_attribute = "toy.config";
    s_metric = "obs";
    s_monotone = Spec.Unordered;
    s_configs = [ { Spec.c_name = "a"; c_value = 0 }; { Spec.c_name = "b"; c_value = 1 } ];
    s_initial = 0;
    s_transitions = [ flip 0; flip 1 ];
    s_guard = None;
  }

(* A trivially adaptable loop: every fed observation applies a
   reconfiguration labelled [label]. *)
let always_adapt ?(label = "flip") ?(name = "toy") ?(kind = "test") () =
  let sensor = Sensor.make ~period:1 ~overhead_instrs:0 (fun () -> 0) in
  let config = ref 0 in
  Adaptive.create ~spec:(toy_spec ~name ~kind label) ~home:0 ~sensor
    ~read:(fun () -> !config)
    ~apply:(fun v ->
      config := v;
      true)

(* -- registry ------------------------------------------------------ *)

let test_registry_enumerates_objects () =
  let snap = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        Registry.reset ();
        check_int "registry empty after reset" 0 (List.length (Registry.snapshot ()));
        let (_ : Adaptive_barrier.t) =
          Adaptive_barrier.create ~node:0 ~name:"b" 2
        in
        let (_ : Adaptive_condition.t) =
          Adaptive_condition.create ~node:0 ~name:"c" ()
        in
        let (_ : Adaptive_semaphore.t) =
          Adaptive_semaphore.create ~node:0 ~name:"s" 1
        in
        snap := Registry.snapshot ())
  in
  check_int "three objects live" 3 (List.length !snap);
  let kinds = List.map (fun m -> m.Registry.spec.s_kind) !snap in
  Alcotest.(check (list string))
    "creation order preserved"
    [ "barrier"; "condition"; "semaphore" ]
    kinds;
  List.iteri (fun i m -> check_int "ids are ordinals" i m.Registry.id) !snap;
  check_string "names kept" "b" (List.hd !snap).Registry.spec.s_name

(* The registry resets itself at every [Sched.run] start: back-to-back
   simulations on one domain never see each other's (dead) entries,
   even when nobody calls [Registry.reset]. *)
let test_registry_resets_between_runs () =
  let first = ref 0 and at_start = ref (-1) and after = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let (_ : Adaptive.t) = always_adapt ~name:"stale" () in
        first := List.length (Registry.snapshot ()))
  in
  let (_ : Sched.t) =
    run (fun () ->
        at_start := List.length (Registry.snapshot ());
        let (_ : Adaptive.t) = always_adapt ~name:"fresh" () in
        after := List.length (Registry.snapshot ()))
  in
  check_int "first run registered its object" 1 !first;
  check_int "second run starts clean without a manual reset" 0 !at_start;
  check_int "second run sees only its own objects" 1 !after

let small_spec =
  { Workloads.Sync_objects.default with
    processors = 6;
    workers = 4;
    rounds = 6;
    items_each = 2;
  }

let test_registry_json_deterministic () =
  let r1 = Workloads.Sync_objects.run small_spec in
  let r2 = Workloads.Sync_objects.run small_spec in
  let j1 = Registry.to_json r1.Workloads.Sync_objects.snapshot in
  let j2 = Registry.to_json r2.Workloads.Sync_objects.snapshot in
  check_string "repeated runs serialize identically" j1 j2;
  check_bool "document is non-trivial" true (String.length j1 > 100)

let test_sync_objects_smoke () =
  let r = Workloads.Sync_objects.run small_spec in
  check_int "all five families present" 5
    (List.length r.Workloads.Sync_objects.snapshot);
  check_bool "workload adapts" true (r.Workloads.Sync_objects.adaptations > 0);
  check_bool "virtual time advanced" true (r.Workloads.Sync_objects.total_ns > 0)

(* -- adaptive barrier ---------------------------------------------- *)

let test_adaptive_barrier_rounds () =
  let rounds = 5 and parties = 3 in
  let violations = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let b = Adaptive_barrier.create ~node:0 ~name:"b" parties in
        let hits = Array.make rounds 0 in
        let worker i () =
          for r = 0 to rounds - 1 do
            Cthread.work (1_000 * (i + 1));
            hits.(r) <- hits.(r) + 1;
            Adaptive_barrier.await b;
            (* Everyone must have arrived before anyone proceeds. *)
            if hits.(r) <> parties then incr violations
          done
        in
        let ts =
          List.init parties (fun i -> Cthread.fork ~proc:(1 + i) (worker i))
        in
        List.iter Cthread.join ts)
  in
  check_int "no early release" 0 !violations

let test_adaptive_barrier_budget_adapts () =
  let budget = ref 0 and adaptations = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        (* Thresholds wide open: any observed spread rewards spinning. *)
        let b =
          Adaptive_barrier.create ~node:0 ~name:"b"
            ~spin_if_under:50_000_000 ~block_if_over:100_000_000 3
        in
        check_int "starts blocking" 0 (Adaptive_barrier.spin_budget_ns b);
        let worker i () =
          for _ = 1 to 4 do
            Cthread.work (2_000 * (i + 1));
            Adaptive_barrier.await b
          done
        in
        let ts = List.init 3 (fun i -> Cthread.fork ~proc:(1 + i) (worker i)) in
        List.iter Cthread.join ts;
        budget := Adaptive_barrier.spin_budget_ns b;
        adaptations := Adaptive.adaptations (Adaptive_barrier.loop b);
        (* A huge spread fed directly must step the budget back down. *)
        ignore (Adaptive.feed (Adaptive_barrier.loop b) 500_000_000);
        check_bool "spin-less shrinks the budget" true
          (Adaptive_barrier.spin_budget_ns b < !budget))
  in
  check_bool "budget widened under tight spreads" true (!budget > 0);
  check_bool "cycles reconfigured" true (!adaptations > 0)

(* -- adaptive condition -------------------------------------------- *)

let test_adaptive_condition_no_lost_signal () =
  let produced = 6 in
  let consumed = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let mu = Spin.create ~node:0 () in
        let cv = Adaptive_condition.create ~node:0 ~name:"cv" () in
        let items = ref 0 in
        let consumer n () =
          for _ = 1 to n do
            Spin.lock mu;
            while !items = 0 do
              Adaptive_condition.wait cv mu
            done;
            decr items;
            incr consumed;
            Spin.unlock mu
          done
        in
        let c1 = Cthread.fork ~proc:1 (consumer (produced / 2)) in
        let c2 = Cthread.fork ~proc:2 (consumer (produced / 2)) in
        for _ = 1 to produced do
          Cthread.work 30_000;
          Spin.lock mu;
          incr items;
          Adaptive_condition.signal cv;
          Spin.unlock mu
        done;
        Cthread.join c1;
        Cthread.join c2)
  in
  check_int "every item consumed" produced !consumed

let test_adaptive_condition_broadcast_escalation () =
  let (_ : Sched.t) =
    run (fun () ->
        let cv = Adaptive_condition.create ~node:0 ~name:"cv" () in
        check_bool "starts in signal mode" false
          (Adaptive_condition.broadcasting cv);
        ignore (Adaptive.feed (Adaptive_condition.loop cv) 10);
        check_bool "crowd escalates to broadcast" true
          (Adaptive_condition.broadcasting cv);
        ignore (Adaptive.feed (Adaptive_condition.loop cv) 0);
        check_bool "scarcity de-escalates" false
          (Adaptive_condition.broadcasting cv))
  in
  ()

(* -- adaptive semaphore -------------------------------------------- *)

let test_adaptive_semaphore_respects_permits () =
  let max_inside = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let sem = Adaptive_semaphore.create ~node:0 ~name:"sem" 2 in
        let inside = ref 0 in
        let worker () =
          for _ = 1 to 3 do
            Adaptive_semaphore.acquire sem;
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Cthread.work 20_000;
            decr inside;
            Adaptive_semaphore.release sem;
            Cthread.work 5_000
          done
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(1 + i) worker) in
        List.iter Cthread.join ts;
        check_bool "try_acquire takes a free permit" true
          (Adaptive_semaphore.try_acquire sem);
        check_bool "second permit too" true
          (Adaptive_semaphore.try_acquire sem);
        check_bool "third is refused" false
          (Adaptive_semaphore.try_acquire sem);
        Adaptive_semaphore.release sem;
        Adaptive_semaphore.release sem)
  in
  check_bool "both permits usable concurrently" true (!max_inside >= 2);
  check_bool "never above the permit count" true (!max_inside <= 2)

let test_adaptive_semaphore_budget_adapts () =
  let budget = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let sem = Adaptive_semaphore.create ~node:0 ~name:"sem" 1 in
        check_int "starts blocking" 0 (Adaptive_semaphore.spin_budget_ns sem);
        (* Releases that find no queue reward spinning. *)
        for _ = 1 to 8 do
          Adaptive_semaphore.acquire sem;
          Cthread.work 2_000;
          Adaptive_semaphore.release sem
        done;
        budget := Adaptive_semaphore.spin_budget_ns sem)
  in
  check_bool "uncontended turnover widens the budget" true (!budget > 0)

(* -- guard state machine ------------------------------------------- *)

let test_policy_guard_streaks () =
  let module Spec = Policy.Spec in
  let spec =
    {
      (toy_spec ~name:"guarded" ~kind:"test" "flip") with
      Spec.s_guard =
        Some
          {
            Spec.g_clamp_lo = 0;
            g_clamp_hi = 10;
            g_limit = 2;
            g_cooldown = 3;
            g_fallback = 0;
            g_fallback_label = "fallback";
            g_fallback_cost = Adaptive_core.Cost.zero;
          };
    }
  in
  let st = ref Spec.fresh and fallbacks = ref 0 in
  (* One pathological (out-of-clamp) observation; [true] when it
     orders the fallback. *)
  let note () =
    let next, action = Spec.step spec !st ~metric:99 ~cur:0 in
    st := next;
    match action with
    | Spec.Fire { transition = None; _ } ->
      incr fallbacks;
      true
    | _ -> false
  in
  check_bool "one bad observation is tolerated" false (note ());
  check_int "streak counted" 1 !st.Spec.streak;
  check_bool "streak limit orders fallback" true (note ());
  check_int "fallback recorded" 1 !fallbacks;
  (* Cooldown: the next pathological observations must not re-trigger. *)
  check_bool "cooldown suppresses" false (note ());
  check_bool "still suppressed" false (note ())

(* -- trace annotations --------------------------------------------- *)

let test_trace_records_adaptations () =
  let sim = Sched.create cfg in
  let tr = Analysis.Trace.attach sim in
  Sched.run sim (fun () ->
      let loop = always_adapt ~name:"widget" ~kind:"gadget" ~label:"flip" () in
      ignore (Adaptive.feed loop 0));
  match Analysis.Trace.adaptations tr with
  | [ a ] ->
    check_string "object name" "widget" a.Analysis.Trace.ad_obj;
    check_string "object kind" "gadget" a.Analysis.Trace.ad_kind;
    check_string "transition label" "flip" a.Analysis.Trace.ad_label;
    check_bool "linearized position stamped" true (a.Analysis.Trace.ad_time >= 0)
  | l -> Alcotest.failf "expected one adaptation, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "registry enumerates" `Quick test_registry_enumerates_objects;
    Alcotest.test_case "registry resets between runs" `Quick
      test_registry_resets_between_runs;
    Alcotest.test_case "registry json deterministic" `Quick
      test_registry_json_deterministic;
    Alcotest.test_case "sync-objects smoke" `Quick test_sync_objects_smoke;
    Alcotest.test_case "barrier rounds" `Quick test_adaptive_barrier_rounds;
    Alcotest.test_case "barrier budget adapts" `Quick
      test_adaptive_barrier_budget_adapts;
    Alcotest.test_case "condition no lost signal" `Quick
      test_adaptive_condition_no_lost_signal;
    Alcotest.test_case "condition broadcast escalation" `Quick
      test_adaptive_condition_broadcast_escalation;
    Alcotest.test_case "semaphore permits" `Quick
      test_adaptive_semaphore_respects_permits;
    Alcotest.test_case "semaphore budget adapts" `Quick
      test_adaptive_semaphore_budget_adapts;
    Alcotest.test_case "guard streaks" `Quick test_policy_guard_streaks;
    Alcotest.test_case "trace adaptations" `Quick test_trace_records_adaptations;
  ]
