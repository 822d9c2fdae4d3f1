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
            Locks.Lock.lock lk;
            incr inside;
            if !inside > !overlap then overlap := !inside;
            let v = !counter in
            Cthread.work cs_ns;
            counter := v + 1;
            decr inside;
            Locks.Lock.unlock lk
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
          Locks.Lock.lock lk;
          Locks.Lock.unlock lk
        done;
        stats := Some (Locks.Lock.stats lk))
  in
  match !stats with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    Alcotest.(check int) "five locks" 5 (Locks.Lock_stats.lock_calls s);
    Alcotest.(check int) "none contended" 0 (Locks.Lock_stats.contended s)

let test_with_lock_releases_on_exception () =
  let reacquired = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Spin in
        (try Locks.Lock.with_lock lk (fun () -> failwith "inside") with Failure _ -> ());
        reacquired := Locks.Lock.try_lock lk;
        Locks.Lock.unlock lk)
  in
  Alcotest.(check bool) "released after raise" true !reacquired

let test_blocking_lock_blocks () =
  (* With a blocking lock, a waiter must use the sleeping path. *)
  let stats = ref None in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Lock.create ~home:0 Locks.Lock.Blocking in
        let worker () =
          Locks.Lock.lock lk;
          Cthread.work 100_000;
          Locks.Lock.unlock lk
        in
        let a = Cthread.fork ~proc:1 worker and b = Cthread.fork ~proc:2 worker in
        Cthread.join a;
        Cthread.join b;
        stats := Some (Locks.Lock.stats lk))
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
          Locks.Lock.lock lk;
          Cthread.work 500_000;
          Locks.Lock.unlock lk
        in
        let ts = List.init 3 (fun i -> Cthread.fork ~proc:(i + 1) worker) in
        Cthread.join_all ts;
        stats := Some (Locks.Lock.stats lk))
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
              Locks.Lock.lock lk;
              Cthread.work 2_000_000;
              Locks.Lock.unlock lk)
        in
        Cthread.work 100_000;
        let waiter =
          Cthread.fork ~proc:2 (fun () ->
              Locks.Lock.lock lk;
              Locks.Lock.unlock lk)
        in
        Cthread.join holder;
        Cthread.join waiter;
        stats := Some (Locks.Lock.stats lk))
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
              Locks.Lock.lock lk;
              Cthread.work 3_000_000;
              Locks.Lock.unlock lk)
        in
        Cthread.work 100_000;
        let waiter =
          Cthread.fork ~proc:2 (fun () ->
              Locks.Lock.lock lk;
              Locks.Lock.unlock lk)
        in
        Cthread.join holder;
        Cthread.join waiter;
        stats := Some (Locks.Lock.stats lk))
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
              Locks.Lock.lock lk;
              (* Owner knows the section is long: advise sleeping. *)
              Locks.Lock.advise lk (Some Locks.Lock_core.Advise_sleep);
              Cthread.work 2_000_000;
              Locks.Lock.advise lk None;
              Locks.Lock.unlock lk)
        in
        Cthread.work 200_000;
        let waiter =
          Cthread.fork ~proc:2 (fun () ->
              Locks.Lock.lock lk;
              Locks.Lock.unlock lk)
        in
        Cthread.join holder;
        Cthread.join waiter;
        stats := Some (Locks.Lock.stats lk))
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
        Locks.Lock.lock lk;
        let waiter i =
          Cthread.fork ~proc:(i + 1) (fun () ->
              Cthread.work (i * 100_000);
              (* stagger arrivals *)
              Locks.Lock.lock lk;
              order := i :: !order;
              Locks.Lock.unlock lk)
        in
        let ts = List.init 3 waiter in
        Cthread.work 1_000_000;
        Locks.Lock.unlock lk;
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
        Locks.Lock.lock lk;
        let waiter i prio =
          Cthread.fork ~proc:(i + 1) ~prio (fun () ->
              Cthread.work (i * 100_000);
              Locks.Lock.lock lk;
              order := i :: !order;
              Locks.Lock.unlock lk)
        in
        (* Arrival order 0,1,2 with priorities 1,3,2. *)
        let ts = [ waiter 0 1; waiter 1 3; waiter 2 2 ] in
        Cthread.work 1_000_000;
        Locks.Lock.unlock lk;
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
        Locks.Lock.lock lk;
        let waiter i =
          Cthread.fork ~proc:(i + 1) (fun () ->
              Cthread.work (i * 100_000);
              Locks.Lock.lock lk;
              order := i :: !order;
              Locks.Lock.unlock lk)
        in
        let ts = List.init 3 waiter in
        Cthread.work 1_000_000;
        (* Owner designates the last arrival as successor. *)
        Locks.Lock.set_successor lk (List.nth ts 2);
        Locks.Lock.unlock lk;
        Cthread.join_all ts)
  in
  match List.rev !order with
  | 2 :: _ -> ()
  | other ->
    Alcotest.failf "expected successor first, got %s"
      (String.concat "," (List.map string_of_int other))

let reconfigurable_core () =
  Locks.Lock.core (Locks.Lock.create ~home:0 Locks.Lock.Reconfigurable)

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
        let core = Locks.Lock.core lk in
        let p = Locks.Lock_core.policy core in
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
  let of_kind kind () = Locks.Lock.core (Locks.Lock.create ~home:0 kind) in
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

(* Simulated events over Tables 4-8. An allocation or sync-word mark is
   an event, so a static lock that gained reconfiguration's scratch
   word would move this count while leaving every table's bytes
   unchanged. *)
let test_lock_tables_event_count () =
  let e0 = Sched.domain_events_total () in
  let open Experiments.Lock_tables in
  ignore (table4 ~domains:1 ());
  ignore (table5 ~domains:1 ());
  ignore (table6 ~domains:1 ());
  ignore (table7 ());
  ignore (table8 ());
  Alcotest.(check int) "events over tables 4-8" 2_076 (Sched.domain_events_total () - e0)

let test_adaptive_no_contention_becomes_spin () =
  let mode = ref "" and adaptations = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Adaptive_lock.create ~home:0 () in
        (* Uncontended traffic: the monitor always reads 0 waiters. *)
        for _ = 1 to 20 do
          Locks.Adaptive_lock.lock lk;
          Cthread.work 1_000;
          Locks.Adaptive_lock.unlock lk
        done;
        mode := Locks.Adaptive_lock.mode lk;
        adaptations := Locks.Adaptive_lock.adaptations lk)
  in
  Alcotest.(check string) "configured to pure spin" "pure spin" !mode;
  Alcotest.(check int) "one transition" 1 !adaptations

let test_adaptive_contention_becomes_blocking () =
  (* Under sustained contention simple-adapt must drive the lock into
     the pure-blocking configuration at some point; when the run drains
     it may legitimately adapt back toward spinning, so inspect the
     adaptation log rather than the final mode. *)
  let visited_blocking = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let params =
          { Locks.Adaptive_lock.default_params with Locks.Adaptive_lock.waiting_threshold = 1 }
        in
        let lk = Locks.Adaptive_lock.create ~home:0 ~params () in
        let body () =
          for _ = 1 to 8 do
            Locks.Adaptive_lock.lock lk;
            Cthread.work 300_000;
            Locks.Adaptive_lock.unlock lk
          done
        in
        let ts = List.init 6 (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts;
        let log = Adaptive_core.Adaptive.log (Locks.Adaptive_lock.feedback lk) in
        visited_blocking := List.exists (fun (_, label) -> label = "pure blocking") log)
  in
  Alcotest.(check bool) "visited pure blocking" true !visited_blocking

let test_adaptive_mutual_exclusion () =
  check_mutex "adaptive" Locks.Lock.adaptive_default ()

let test_adaptive_policy_consulted () =
  let runs = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Locks.Adaptive_lock.create ~home:0 () in
        for _ = 1 to 10 do
          Locks.Adaptive_lock.lock lk;
          Locks.Adaptive_lock.unlock lk
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
            Locks.Lock.lock lk;
            Cthread.work 50_000;
            Locks.Lock.unlock lk
          done
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts;
        match Locks.Lock_stats.trace (Locks.Lock.stats lk) with
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
          Locks.Lock.lock lk;
          let t1 = Cthread.now () in
          Locks.Lock.unlock lk;
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
    Alcotest.test_case "with_lock releases on raise" `Quick
      test_with_lock_releases_on_exception;
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
    Alcotest.test_case "adaptive: custom policy" `Quick test_adaptive_policy_consulted;
    Alcotest.test_case "trace records pattern" `Quick test_trace_records_pattern;
    Alcotest.test_case "cost ordering (Tables 4/5)" `Quick test_lock_cost_ordering_table4;
    QCheck_alcotest.to_alcotest prop_mutual_exclusion_random_kinds;
  ]
