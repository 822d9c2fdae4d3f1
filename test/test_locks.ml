(* Lock-family tests: mutual exclusion for every kind, waiting-policy
   semantics, schedulers, advisory words, reconfiguration, and the
   simple-adapt feedback behaviour. *)

open Butterfly
open Cthreads

let cfg = { Config.default with Config.processors = 8 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

(* Exercise mutual exclusion: [nthreads] threads each enter the
   critical section [iters] times around a host counter; interleaving
   would lose updates because the critical section spans simulated
   time. Returns (final counter, max overlap observed). *)
let hammer ?(nthreads = 6) ?(iters = 20) ?(cs_ns = 5_000) kind =
  let counter = ref 0 and inside = ref 0 and overlap = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 kind in
        let body () =
          for _ = 1 to iters do
            Locks.Lock_core.lock lk;
            incr inside;
            if !inside > !overlap then overlap := !inside;
            let v = !counter in
            Cthread.work cs_ns;
            counter := v + 1;
            decr inside;
            Locks.Lock_core.unlock lk
          done
        in
        let ts = List.init nthreads (fun i -> Cthread.fork ~proc:(1 + (i mod 7)) body) in
        Cthread.join_all ts)
  in
  (!counter, !overlap)

let check_mutex name kind () =
  let total, overlap = hammer kind in
  Alcotest.(check int) (name ^ ": no lost updates") (6 * 20) total;
  Alcotest.(check int) (name ^ ": never two inside") 1 overlap

let test_uncontended_fast_path () =
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Spin in
        for _ = 1 to 5 do
          Locks.Lock_core.lock lk;
          Locks.Lock_core.unlock lk
        done;
        stats := Some (Locks.Lock_core.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check int) "five locks" 5 (Locks.Lock_stats.lock_calls s);
    Alcotest.(check int) "none contended" 0 (Locks.Lock_stats.contended s)

let test_blocking_lock_blocks () =
  (* With a blocking lock, a waiter must use the sleeping path. *)
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Blocking in
        let worker () =
          Locks.Lock_core.lock lk;
          Cthread.work 100_000;
          Locks.Lock_core.unlock lk
        in
        let a = Cthread.fork ~proc:1 worker and b = Cthread.fork ~proc:2 worker in
        Cthread.join a;
        Cthread.join b;
        stats := Some (Locks.Lock_core.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check int) "one waiter blocked" 1 (Locks.Lock_stats.blocks s);
    Alcotest.(check int) "one handoff" 1 (Locks.Lock_stats.handoffs s);
    Alcotest.(check int) "no spin probes" 0 (Locks.Lock_stats.spin_probes s)

let test_spin_lock_never_blocks () =
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Spin in
        let worker () =
          Locks.Lock_core.lock lk;
          Cthread.work 500_000;
          Locks.Lock_core.unlock lk
        in
        let ts = List.init 3 (fun i -> Cthread.fork ~proc:(i + 1) worker) in
        Cthread.join_all ts;
        stats := Some (Locks.Lock_core.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check int) "no blocks" 0 (Locks.Lock_stats.blocks s);
    Alcotest.(check bool) "spun instead" true (Locks.Lock_stats.spin_probes s > 0)

let test_combined_spills_to_block () =
  (* combined(2): a waiter facing a long critical section probes twice
     then sleeps. *)
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 (Locks.Lock.Combined 2) in
        let holder =
          Cthread.fork ~proc:1 (fun () ->
              Locks.Lock_core.lock lk;
              Cthread.work 2_000_000;
              Locks.Lock_core.unlock lk)
        in
        Cthread.work 100_000;
        let waiter =
          Cthread.fork ~proc:2 (fun () ->
              Locks.Lock_core.lock lk;
              Locks.Lock_core.unlock lk)
        in
        Cthread.join holder;
        Cthread.join waiter;
        stats := Some (Locks.Lock_core.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check int) "slept after the spin phase" 1 (Locks.Lock_stats.blocks s);
    Alcotest.(check bool) "probed first" true (Locks.Lock_stats.spin_probes s >= 2)

let test_conditional_times_out_to_block () =
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 (Locks.Lock.Conditional 50_000) in
        let holder =
          Cthread.fork ~proc:1 (fun () ->
              Locks.Lock_core.lock lk;
              Cthread.work 3_000_000;
              Locks.Lock_core.unlock lk)
        in
        Cthread.work 100_000;
        let waiter =
          Cthread.fork ~proc:2 (fun () ->
              Locks.Lock_core.lock lk;
              Locks.Lock_core.unlock lk)
        in
        Cthread.join holder;
        Cthread.join waiter;
        stats := Some (Locks.Lock_core.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s -> Alcotest.(check int) "timed out into sleep" 1 (Locks.Lock_stats.blocks s)

let test_advisory_sleep_advice () =
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Advisory in
        let holder =
          Cthread.fork ~proc:1 (fun () ->
              Locks.Lock_core.lock lk;
              (* Owner knows the section is long: advise sleeping. *)
              Locks.Lock_core.advise lk (Some Locks.Lock_core.Advise_sleep);
              Cthread.work 2_000_000;
              Locks.Lock_core.advise lk None;
              Locks.Lock_core.unlock lk)
        in
        Cthread.work 200_000;
        let waiter =
          Cthread.fork ~proc:2 (fun () ->
              Locks.Lock_core.lock lk;
              Locks.Lock_core.unlock lk)
        in
        Cthread.join holder;
        Cthread.join waiter;
        stats := Some (Locks.Lock_core.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check int) "waiter slept immediately" 1 (Locks.Lock_stats.blocks s);
    Alcotest.(check int) "no probes burned" 0 (Locks.Lock_stats.spin_probes s)

let test_fcfs_order () =
  let order = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 ~sched:Locks.Lock_sched.Fcfs Locks.Lock.Blocking in
        Locks.Lock_core.lock lk;
        let waiter i =
          Cthread.fork ~proc:(i + 1) (fun () ->
              Cthread.work (i * 100_000);
              (* stagger arrivals *)
              Locks.Lock_core.lock lk;
              order := i :: !order;
              Locks.Lock_core.unlock lk)
        in
        let ts = List.init 3 waiter in
        Cthread.work 1_000_000;
        Locks.Lock_core.unlock lk;
        Cthread.join_all ts)
  in
  Alcotest.(check (list int)) "arrival order served" [ 0; 1; 2 ] (List.rev !order)

let test_priority_order () =
  let order = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let lk =
          Locks.Lock.create ~home:0 ~sched:Locks.Lock_sched.Priority Locks.Lock.Blocking
        in
        Locks.Lock_core.lock lk;
        let waiter i prio =
          Cthread.fork ~proc:(i + 1) ~prio (fun () ->
              Cthread.work (i * 100_000);
              Locks.Lock_core.lock lk;
              order := i :: !order;
              Locks.Lock_core.unlock lk)
        in
        (* Arrival order 0,1,2 with priorities 1,3,2. *)
        let ts = [ waiter 0 1; waiter 1 3; waiter 2 2 ] in
        Cthread.work 1_000_000;
        Locks.Lock_core.unlock lk;
        Cthread.join_all ts)
  in
  Alcotest.(check (list int)) "highest priority first" [ 1; 2; 0 ] (List.rev !order)

let test_handoff_successor () =
  let order = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let lk =
          Locks.Lock.create ~home:0 ~sched:Locks.Lock_sched.Handoff Locks.Lock.Blocking
        in
        Locks.Lock_core.lock lk;
        let waiter i =
          Cthread.fork ~proc:(i + 1) (fun () ->
              Cthread.work (i * 100_000);
              Locks.Lock_core.lock lk;
              order := i :: !order;
              Locks.Lock_core.unlock lk)
        in
        let ts = List.init 3 waiter in
        Cthread.work 1_000_000;
        (* Owner designates the last arrival as successor. *)
        Locks.Lock_core.set_successor lk (Cthread.id (List.nth ts 2));
        Locks.Lock_core.unlock lk;
        Cthread.join_all ts)
  in
  match List.rev !order with
  | 2 :: _ -> ()
  | other ->
    Alcotest.failf "expected successor first, got %s"
      (String.concat "," (List.map string_of_int other))

let reconfigurable_core () =
  Locks.Lock.create ~home:0 Locks.Lock.Reconfigurable

let test_reconfigurable_waiting_change () =
  let before = ref "" and after = ref "" in
  let describe lk = Locks.Waiting.describe (Locks.Lock_core.policy lk) in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = reconfigurable_core () in
        before := describe lk;
        Locks.Lock_core.configure_waiting lk ~spin_count:max_int ~sleep:false ();
        after := describe lk)
  in
  Alcotest.(check string) "starts mixed" "mixed sleep/spin" !before;
  Alcotest.(check string) "becomes pure spin" "pure spin" !after

let test_reconfigurable_scheduler_change_cost () =
  let dt_wait = ref 0 and dt_sched = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = reconfigurable_core () in
        let t0 = Cthread.now () in
        Locks.Lock_core.configure_waiting lk ~spin_count:3 ();
        let t1 = Cthread.now () in
        Locks.Lock_core.configure_scheduler lk Locks.Lock_sched.Priority;
        let t2 = Cthread.now () in
        dt_wait := t1 - t0;
        dt_sched := t2 - t1)
  in
  Alcotest.(check bool) "scheduler reconfig costs more than waiting reconfig" true
    (!dt_sched > !dt_wait);
  (* Both should be in the microsecond regime of Table 8 (about 10-13us). *)
  Alcotest.(check bool) "waiting reconfig ~10us" true (!dt_wait > 5_000 && !dt_wait < 20_000);
  Alcotest.(check bool) "sched reconfig ~12us" true (!dt_sched > 8_000 && !dt_sched < 25_000)

let test_static_lock_frozen () =
  let raised = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Spin in
        let p = Locks.Lock_core.policy lk in
        try Adaptive_core.Attribute.set p.Locks.Waiting.spin_count 1
        with Adaptive_core.Attribute.Immutable_attribute _ -> raised := true)
  in
  Alcotest.(check bool) "static attributes frozen" true !raised

(* A lock whose policy is frozen at creation has no reconfiguration
   support: every reconfiguration operation raises before it charges
   virtual time or ticks the reconfiguration count. *)
let test_static_locks_refuse_reconfiguration () =
  let frozen_core () =
    let policy = Locks.Waiting.pure_spin ~node:0 () in
    Locks.Waiting.freeze policy;
    Locks.Lock_core.create ~home:0
      ~impl:(Locks.Lock_core.Central (policy, Locks.Lock_costs.spin))
      ()
  in
  let of_kind kind () = Locks.Lock.create ~home:0 kind in
  let ops =
    Locks.Lock_core.
      [
        (fun lk -> configure_waiting lk ~spin_count:3 ());
        (fun lk -> configure_scheduler lk Locks.Lock_sched.Priority);
        (fun lk -> ignore (acquire_ownership lk));
        release_ownership;
      ]
  in
  List.iter
    (fun (what, make) ->
      let raised = ref 0 and elapsed = ref (-1) and reconfs = ref (-1) in
      let (_ : Sched.t) =
        run (fun () ->
            let lk = make () in
            let t0 = Cthread.now () in
            List.iter (fun op -> try op lk with Invalid_argument _ -> incr raised) ops;
            elapsed := Cthread.now () - t0;
            reconfs := Locks.Lock_stats.reconfigurations (Locks.Lock_core.stats lk))
      in
      Alcotest.(check int) (what ^ ": every operation raises") (List.length ops) !raised;
      Alcotest.(check int) (what ^ ": no virtual time charged") 0 !elapsed;
      Alcotest.(check int) (what ^ ": no reconfiguration counted") 0 !reconfs)
    [
      ("spin", of_kind Locks.Lock.Spin);
      ("advisory", of_kind Locks.Lock.Advisory);
      ("frozen core", frozen_core);
    ]

(* Simulated events over Tables 4-8. Each allocation is an event, so a
   static lock that gained reconfiguration's scratch word would move
   this count while leaving every table's bytes unchanged. Table 7's
   four locks are built without a feedback loop, so none allocates the
   loop's scratch word. *)
let test_lock_tables_event_count () =
  let e0 = Sched.domain_events_total () in
  let open Experiments.Lock_tables in
  ignore (table4 ~domains:1 ());
  ignore (table5 ~domains:1 ());
  ignore (table6 ~domains:1 ());
  ignore (table7 ());
  ignore (table8 ());
  Alcotest.(check int) "events over tables 4-8" 2_072 (Sched.domain_events_total () - e0)

(* An adaptive lock as the simple-adapt tests build it, and its loop. *)
let adaptive ?(params = Locks.Spin_budget.default_params) () =
  let lk =
    Locks.Lock_core.create ~name:"adaptive-lock" ~home:0
      ~impl:(Locks.Lock_core.Adaptive params) ()
  in
  (lk, Option.get (Locks.Lock_core.feedback lk))

let test_adaptive_no_contention_becomes_spin () =
  let mode = ref "" and adaptations = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk, loop = adaptive () in
        (* Uncontended traffic: the monitor always reads 0 waiters. *)
        for _ = 1 to 20 do
          Locks.Lock_core.lock lk;
          Cthread.work 1_000;
          Locks.Lock_core.unlock lk
        done;
        mode := Locks.Waiting.describe (Locks.Lock_core.policy lk);
        adaptations := Adaptive_core.Adaptive.adaptations loop)
  in
  Alcotest.(check string) "configured to pure spin" "pure spin" !mode;
  Alcotest.(check int) "one transition" 1 !adaptations

(* The loop lives in the lock and ticks in [Lock_core.unlock]: a lock
   driven only through [Lock_core.lock] and [Lock_core.unlock] adapts
   through a quiet phase, a seven-thread storm and a quiet tail. The
   pinned log is the one this script produced when the loop ticked
   after [Lock_core.unlock] from a separate handle, so the tick moved
   without moving any sample, charge or transition. *)
let test_adaptive_core_unlock_adapts () =
  let log = ref [] and samples = ref 0 in
  let quiet lk n =
    for _ = 1 to n do
      Locks.Lock_core.lock lk;
      Cthread.work 2_000;
      Locks.Lock_core.unlock lk
    done
  in
  let (_ : Sched.t) =
    run (fun () ->
        let lk, loop = adaptive () in
        quiet lk 6;
        let storm () =
          for _ = 1 to 6 do
            Locks.Lock_core.lock lk;
            Cthread.work 200_000;
            Locks.Lock_core.unlock lk
          done
        in
        Cthread.join_all (List.init 7 (fun i -> Cthread.fork ~proc:(i + 1) storm));
        quiet lk 4;
        log := Adaptive_core.Adaptive.log loop;
        samples := Adaptive_core.Adaptive.samples loop)
  in
  Alcotest.(check int) "one sample every other unlock" 26 !samples;
  Alcotest.(check (list (pair int string)))
    "adaptation log"
    [
      (207_110, "pure spin");
      (1_976_250, "pure blocking");
      (20_184_330, "combined(16)");
      (21_409_030, "pure spin");
    ]
    !log

let test_adaptive_contention_becomes_blocking () =
  (* Under sustained contention simple-adapt must drive the lock into
     the pure-blocking configuration at some point; when the run drains
     it may legitimately adapt back toward spinning, so inspect the
     adaptation log rather than the final mode. *)
  let visited_blocking = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let params = { Locks.Spin_budget.default_params with waiting_threshold = 1 } in
        let lk, loop = adaptive ~params () in
        let body () =
          for _ = 1 to 8 do
            Locks.Lock_core.lock lk;
            Cthread.work 300_000;
            Locks.Lock_core.unlock lk
          done
        in
        let ts = List.init 6 (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts;
        let log = Adaptive_core.Adaptive.log loop in
        visited_blocking := List.exists (fun (_, label) -> label = "pure blocking") log)
  in
  Alcotest.(check bool) "visited pure blocking" true !visited_blocking

let test_adaptive_mutual_exclusion () =
  check_mutex "adaptive" Locks.Lock.adaptive_default ()

let test_adaptive_policy_consulted () =
  let runs = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk, _ = adaptive () in
        for _ = 1 to 10 do
          Locks.Lock_core.lock lk;
          Locks.Lock_core.unlock lk
        done;
        runs :=
          List.fold_left
            (fun n m -> n + m.Adaptive_core.Registry.stats.policy_runs)
            0 (Adaptive_core.Registry.snapshot ()))
  in
  (* period 2 -> five samples, each running the spec's step. *)
  Alcotest.(check int) "policy consulted" 5 !runs

let test_trace_records_pattern () =
  let points = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 ~trace:true Locks.Lock.Blocking in
        let body () =
          for _ = 1 to 5 do
            Locks.Lock_core.lock lk;
            Cthread.work 50_000;
            Locks.Lock_core.unlock lk
          done
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts;
        match Locks.Lock_stats.trace (Locks.Lock_core.stats lk) with
        | Some series -> points := Engine.Series.length series
        | None -> ())
  in
  Alcotest.(check bool) "pattern points recorded" true (!points > 0)

let test_lock_cost_ordering_table4 () =
  (* Uncontended lock-op latency must order: atomior-style spin <
     blocking (Table 4) and unlock: spin < adaptive < blocking
     (Table 5). *)
  let measure kind =
    let dt_lock = ref 0 and dt_unlock = ref 0 in
    let (_ : Sched.t) =
      run (fun () ->
          let lk = Locks.Lock.create ~home:0 kind in
          let t0 = Cthread.now () in
          Locks.Lock_core.lock lk;
          let t1 = Cthread.now () in
          Locks.Lock_core.unlock lk;
          let t2 = Cthread.now () in
          dt_lock := t1 - t0;
          dt_unlock := t2 - t1)
    in
    (!dt_lock, !dt_unlock)
  in
  let spin_l, spin_u = measure Locks.Lock.Spin in
  let block_l, block_u = measure Locks.Lock.Blocking in
  let adapt_l, adapt_u = measure Locks.Lock.adaptive_default in
  Alcotest.(check bool) "lock: spin < blocking" true (spin_l < block_l);
  Alcotest.(check bool) "lock: adaptive ~ spin" true (abs (adapt_l - spin_l) < 3_000);
  Alcotest.(check bool) "unlock: spin < adaptive" true (spin_u < adapt_u);
  Alcotest.(check bool) "unlock: adaptive < blocking" true (adapt_u < block_u)

let prop_mutual_exclusion_random_kinds =
  QCheck.Test.make ~name:"mutual exclusion holds for random configs" ~count:12
    QCheck.(
      pair (int_bound 4)
        (pair (int_bound 3 (* threads-1 *)) (int_bound 3 (* cs scale *))))
    (fun (kind_idx, (extra_threads, cs_scale)) ->
      let kind =
        match kind_idx with
        | 0 -> Locks.Lock.Spin
        | 1 -> Locks.Lock.Backoff
        | 2 -> Locks.Lock.Blocking
        | 3 -> Locks.Lock.Combined 3
        | _ -> Locks.Lock.adaptive_default
      in
      let nthreads = 2 + extra_threads in
      let total, overlap =
        hammer ~nthreads ~iters:8 ~cs_ns:(1_000 * (1 + cs_scale)) kind
      in
      total = nthreads * 8 && overlap = 1)

let suite =
  [
    Alcotest.test_case "mutex: spin" `Quick (check_mutex "spin" Locks.Lock.Spin);
    Alcotest.test_case "mutex: backoff" `Quick (check_mutex "backoff" Locks.Lock.Backoff);
    Alcotest.test_case "mutex: blocking" `Quick (check_mutex "blocking" Locks.Lock.Blocking);
    Alcotest.test_case "mutex: combined" `Quick
      (check_mutex "combined" (Locks.Lock.Combined 5));
    Alcotest.test_case "mutex: reconfigurable" `Quick
      (check_mutex "reconfigurable" Locks.Lock.Reconfigurable);
    Alcotest.test_case "mutex: adaptive" `Quick test_adaptive_mutual_exclusion;
    Alcotest.test_case "uncontended fast path" `Quick test_uncontended_fast_path;
    Alcotest.test_case "blocking lock blocks" `Quick test_blocking_lock_blocks;
    Alcotest.test_case "spin lock never blocks" `Quick test_spin_lock_never_blocks;
    Alcotest.test_case "combined spills to block" `Quick test_combined_spills_to_block;
    Alcotest.test_case "conditional timeout" `Quick test_conditional_times_out_to_block;
    Alcotest.test_case "advisory sleep advice" `Quick test_advisory_sleep_advice;
    Alcotest.test_case "FCFS order" `Quick test_fcfs_order;
    Alcotest.test_case "priority order" `Quick test_priority_order;
    Alcotest.test_case "handoff successor" `Quick test_handoff_successor;
    Alcotest.test_case "reconfigure waiting" `Quick test_reconfigurable_waiting_change;
    Alcotest.test_case "reconfigure costs (Table 8)" `Quick
      test_reconfigurable_scheduler_change_cost;
    Alcotest.test_case "static locks frozen" `Quick test_static_lock_frozen;
    Alcotest.test_case "static locks refuse reconfiguration" `Quick
      test_static_locks_refuse_reconfiguration;
    Alcotest.test_case "tables 4-8 event count" `Quick test_lock_tables_event_count;
    Alcotest.test_case "adaptive: no contention -> spin" `Quick
      test_adaptive_no_contention_becomes_spin;
    Alcotest.test_case "adaptive: contention -> blocking" `Quick
      test_adaptive_contention_becomes_blocking;
    Alcotest.test_case "adaptive: Lock_core.unlock adapts" `Quick
      test_adaptive_core_unlock_adapts;
    Alcotest.test_case "adaptive: custom policy" `Quick test_adaptive_policy_consulted;
    Alcotest.test_case "trace records pattern" `Quick test_trace_records_pattern;
    Alcotest.test_case "cost ordering (Tables 4/5)" `Quick test_lock_cost_ordering_table4;
    QCheck_alcotest.to_alcotest prop_mutual_exclusion_random_kinds;
  ]
