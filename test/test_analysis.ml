(* Analysis-library tests: vector-clock edge cases the race detector
   must get right, the composable event-hook bus, lock-misuse
   exceptions, and the sanitizer verdicts over the whole scenario
   suite (shipped stays clean, seeded bugs stay flagged). *)

open Butterfly
open Cthreads

let cfg ?(processors = 4) ?(seed = 7) () =
  { Config.default with Config.processors; seed }

let rules (r : Analysis.report) =
  List.map (fun d -> d.Analysis.Diag.rule) r.Analysis.diags

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- vector-clock edges ------------------------------------------- *)

(* Two threads touch [x] with no lock held around the accesses; the
   only possible ordering is the release->acquire edge through [m].
   With the hand-off the report must be clean, without it the same
   program is a genuine race — both outcomes exercise the HB pass. *)
let hb_via_lock ~use_lock () =
  let x = Ops.alloc1 ~node:0 () in
  let m = Locks.Lock.create ~home:0 Locks.Lock.Blocking in
  let a =
    Cthread.fork ~name:"writer" ~proc:1 (fun () ->
        Ops.write x 1;
        Locks.Lock_core.lock m;
        Locks.Lock_core.unlock m)
  in
  let b =
    Cthread.fork ~name:"reader" ~proc:2 (fun () ->
        Cthread.work 80_000;
        if use_lock then begin
          Locks.Lock_core.lock m;
          Locks.Lock_core.unlock m
        end;
        ignore (Ops.read x))
  in
  Cthread.join_all [ a; b ]

let test_release_acquire_orders () =
  let r = Analysis.check (cfg ()) (hb_via_lock ~use_lock:true) in
  check_bool "release->acquire edge orders the accesses" true (Analysis.clean r)

let test_missing_edge_is_a_race () =
  let r = Analysis.check (cfg ()) (hb_via_lock ~use_lock:false) in
  check_bool "without the hand-off the race is real" true
    (List.mem "data-race" (rules r))

(* Parent/child ordering through fork and join: the child sees the
   parent's write, the parent sees the child's, no locks anywhere. *)
let fork_join_orders () =
  let x = Ops.alloc1 ~node:0 () in
  Ops.write x 1;
  let c =
    Cthread.fork ~name:"child" ~proc:1 (fun () -> Ops.write x (Ops.read x + 1))
  in
  Cthread.join c;
  Ops.write x (Ops.read x + 1)

let test_fork_join_orders () =
  let r = Analysis.check (cfg ()) fork_join_orders in
  check_bool "fork and join edges order parent and child" true (Analysis.clean r)

(* A wakeup sent before the wakee blocks is a wake token: the wakee's
   later block absorbs it (an [Ev_token_use], no sleep), and the
   absorption must carry the waker's clock just as a wakeup of a
   sleeper does. Without the hand-off the same accesses race. *)
let wake_token_orders ~wake () =
  let x = Ops.alloc1 ~node:0 () in
  let t =
    Cthread.fork ~name:"wakee" ~proc:1 (fun () ->
        Cthread.work 200_000;
        if wake then Cthread.block ();
        ignore (Ops.read x))
  in
  Ops.write x 1;
  if wake then Cthread.wakeup t;
  Cthread.join t

let test_wake_token_orders () =
  let r, trace, _ = Analysis.check_trace (cfg ()) (wake_token_orders ~wake:true) in
  check_bool "the wakeup arrived as a token" true
    (Analysis.Trace.count trace Sched.Ev_token = 1
    && Analysis.Trace.count trace Sched.Ev_token_use = 1
    && Analysis.Trace.count trace Sched.Ev_block = 0);
  check_bool "the absorbed token orders write before read" true (Analysis.clean r);
  let r = Analysis.check (cfg ()) (wake_token_orders ~wake:false) in
  check_bool "without the wakeup the race is real" true (List.mem "data-race" (rules r))

(* A word touched atomically anywhere in the run is exempt everywhere,
   also at the plain accesses that precede its first atomic. Two words,
   each touched atomically twice in a row, one run after the other:
   the scan must record the word of every run, the last one included. *)
let late_atomic ~atomic () =
  let x = Ops.alloc1 ~node:0 () and y = Ops.alloc1 ~node:1 () in
  let ts =
    List.init 2 (fun i ->
        Cthread.fork ~proc:(1 + i) (fun () ->
            Ops.write x (i + 1);
            Ops.write y (i + 1)))
  in
  Cthread.join_all ts;
  if atomic then List.iter (fun w -> ignore (Ops.fetch_and_add w 1)) [ x; x; y; y ]

let test_late_atomic_exempts () =
  let r = Analysis.check (cfg ()) (late_atomic ~atomic:true) in
  check_bool "a later atomic exempts the earlier plain writes" true (Analysis.clean r);
  let r = Analysis.check (cfg ()) (late_atomic ~atomic:false) in
  check_bool "without the atomic the writes race" true (List.mem "data-race" (rules r))

(* Two clocks that absorb each other's snapshots in turn, as two
   threads passing a lock back and forth do, stay exactly as long as
   the highest tid they have heard of plus one. A clock that grew by
   doubling would double on every exchange; the check inside the loop
   stops such a clock at its first overgrowth. *)
let test_clock_length_bound () =
  let module V = Analysis.Vclock in
  let a = V.create () and b = V.create () in
  V.set a 2 1;
  V.set b 4 1;
  for i = 1 to 1_000 do
    V.join a (V.snapshot b);
    V.incr a 2;
    V.join b (V.snapshot a);
    V.incr b 4;
    let la = Array.length (V.snapshot a) and lb = Array.length (V.snapshot b) in
    if la <> 5 || lb <> 5 then
      Alcotest.failf "exchange %d: clock lengths %d and %d, expected 5" i la lb
  done;
  check_int "a's own component" 1_001 (V.get a 2);
  check_int "b has seen a's last release" 1_001 (V.get b 2);
  check_int "a has seen all but b's last release" 1_000 (V.get a 4);
  check_bool "components past the end read 0" true
    (List.for_all (fun i -> V.get a i = 0 && V.get b i = 0) [ 5; 6; 64; 1 lsl 20 ])

(* Each thread's accesses alternate between a word touched atomically
   (exempt) and a plain word the two threads race on, so the exemption
   set is asked about each word both right after the other word and
   right after itself.
   The remembered answer for the exempt word must not leak onto the
   plain one: both detectors report the race, with the diagnostic they
   gave before the exemption test remembered anything. *)
let alternating_race () =
  let flag = Ops.alloc1 ~node:0 () and x = Ops.alloc1 ~node:1 () in
  let ts =
    List.init 2 (fun i ->
        Cthread.fork ~name:(Printf.sprintf "w%d" i) ~proc:(1 + i) (fun () ->
            for j = 1 to 4 do
              ignore (Ops.fetch_and_add flag 1);
              Ops.write x (Ops.read x + j)
            done))
  in
  Cthread.join_all ts

let test_exempt_memo_keeps_race () =
  let pv = Analysis.check_predictive (cfg ()) alternating_race in
  let observed =
    List.filter_map
      (fun d ->
        if d.Analysis.Diag.rule = "data-race" then Some (Analysis.Diag.to_string d) else None)
      pv.Analysis.observed.Analysis.diags
  in
  let predicted =
    List.filter_map
      (fun p -> if p.Analysis.rule = "predicted-race" then Some p.Analysis.description else None)
      pv.Analysis.predictions
  in
  Alcotest.(check (list string)) "the observed detector reports the race"
    [ "[366550 ns] race/data-race (thread w1): word 1:0: access by w1 at 366550 ns races \
       with access by w0 at 267250 ns; no common lock and no happens-before order \
       (Eraser candidate set empty); 2 occurrences of this site pair" ]
    observed;
  Alcotest.(check (list string)) "the predictor reports the race"
    [ "word 1:0: write by w0 at 267250 ns holding {} is reorderable against read by w1 at \
       366550 ns holding {} (no common lock, weakly unordered); 2 occurrences of this \
       site pair" ]
    predicted

(* The csweep-spin swap-fault chaos run at seed 1, rebuilt as the
   chaos harness runs it so its trace can be kept. *)
let csweep_spin_chaos_trace () =
  let scenario =
    List.find
      (fun s -> s.Analysis_suite.scenario_name = "csweep-spin")
      (Analysis_suite.shipped ())
  in
  let plan =
    Faults.Fault_plan.generate ~swap_faults:true
      ~seed:(1 + (1_000_003 * Hashtbl.hash "csweep-spin"))
      ~cfg:scenario.Analysis_suite.config ~horizon_ns:3_000_000 ()
  in
  let sim = Sched.create scenario.Analysis_suite.config in
  Sched.set_record_schedule sim true;
  let trace = Analysis.Trace.attach sim in
  ignore (Faults.Injector.install sim ~plan : Faults.Injector.t);
  ignore
    (Sched.run_outcome sim (fun () ->
         let wd = Monitoring.Watchdog.start ~sched:sim () in
         scenario.Analysis_suite.program ();
         Monitoring.Watchdog.stop wd)
      : Sched.outcome);
  (scenario, trace, Analysis.Trace.thread_names sim)

(* Host-side allocation bound for the sanitizer passes, on the run
   where clocks that grew by doubling reached 65,536 components: every
   release snapshot copied one. Words are counted from [Gc.counters] as
   minor + major - promoted, since an array that large is allocated
   straight into the major heap and [Gc.minor_words] never sees it.
   Measured over the run's 483 entries: 3,335 words per entry with
   doubling clocks, 4.2 with exact-length clocks and the exemption
   test memoized; the bound is 32. *)
let test_sanitize_allocation () =
  let scenario, trace, names = csweep_spin_chaos_trace () in
  let chaos = Chaos.run_scenario ~swap_faults:true ~scenario ~seed:1 () in
  check_int "the rebuilt run is the chaos run: events" chaos.Chaos.events
    (Analysis.Trace.events trace);
  check_int "the rebuilt run is the chaos run: accesses" chaos.Chaos.accesses
    (Analysis.Trace.accesses trace);
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let diags = Analysis.sanitize ~names trace in
  let per_entry = (allocated () -. before) /. float_of_int (Analysis.Trace.length trace) in
  Alcotest.(check (list string)) "the sanitizers' findings are the chaos run's"
    chaos.Chaos.sanitizer_diags (List.map Analysis.Diag.to_string diags);
  if per_entry >= 32.0 then
    Alcotest.failf "sanitize allocates %.1f words per trace entry" per_entry

(* --- event bus ---------------------------------------------------- *)

(* Two recorders on one machine: attaching the second must not detach
   the first (the hook slot is a bus, not a single cell). *)
let test_two_observers () =
  let sim = Sched.create (cfg ()) in
  let log1 = Analysis.Trace.attach sim in
  let log2 = Analysis.Trace.attach sim in
  Sched.run sim (fun () ->
      let ts =
        List.init 3 (fun i ->
            Cthread.fork ~proc:(1 + i) (fun () -> Cthread.work 10_000))
      in
      Cthread.join_all ts);
  check_bool "first observer saw events" true (Analysis.Trace.events log1 > 0);
  check_int "both observers saw the same stream"
    (Analysis.Trace.length log1) (Analysis.Trace.length log2)

let test_blocked_spans_unmatched_final_block () =
  let sim = Sched.create (cfg ()) in
  let log = Analysis.Trace.attach sim in
  let tid = ref (-1) in
  (* The blocker's second block is never answered, so the run ends in
     a deadlock; its span list must contain only the matched pair. *)
  (try
     Sched.run sim (fun () ->
         let t =
           Cthread.fork ~name:"blocker" ~proc:1 (fun () ->
               Cthread.block ();
               Cthread.block ())
         in
         tid := Cthread.id t;
         (* long enough that the blocker has been dispatched and is
            really blocked, so the wakeup is a wakeup, not a token *)
         Cthread.work 1_000_000;
         Cthread.wakeup t)
   with Sched.Deadlock _ -> ());
  let spans = Analysis.Trace.blocked_spans log !tid in
  check_int "unmatched final block yields no pair" 1 (List.length spans);
  (match spans with
  | [ (b, w) ] -> check_bool "wakeup after block" true (w > b)
  | _ -> ())

(* --- lock misuse -------------------------------------------------- *)

let test_unlock_not_held_raises () =
  let misuses = ref 0 in
  let sim = Sched.create (cfg ()) in
  Sched.run sim (fun () ->
      List.iter
        (fun kind ->
          let l = Locks.Lock.create ~home:0 kind in
          (try Locks.Lock_core.unlock l
           with Locks.Lock_core.Misuse _ -> incr misuses);
          (* and a double unlock, the other way to get there *)
          Locks.Lock_core.lock l;
          Locks.Lock_core.unlock l;
          try Locks.Lock_core.unlock l
          with Locks.Lock_core.Misuse _ -> incr misuses)
        [ Locks.Lock.Spin; Locks.Lock.Blocking; Locks.Lock.adaptive_default ]);
  check_int "every bad unlock raised Misuse" 6 !misuses

(* --- rw-lock lock-order coverage ---------------------------------- *)

(* Rw_lock's writer path participates in the lock-order graph: nesting
   the rw lock against a plain mutex in both orders (by sequential,
   never-overlapping threads) must produce the cycle. *)
let rw_vs_mutex ~reader () =
  let rw = Locks.Rw_lock.create ~name:"rw" ~home:0 () in
  let m = Locks.Lock.create ~name:"mutex" ~home:0 Locks.Lock.Blocking in
  let rw_first () =
    (if reader then Locks.Rw_lock.with_read rw else Locks.Rw_lock.with_write rw)
      (fun () ->
        Cthread.work 5_000;
        Locks.Lock_core.lock m;
        Cthread.work 5_000;
        Locks.Lock_core.unlock m)
  in
  let m_first () =
    Locks.Lock_core.lock m;
    Cthread.work 5_000;
    Locks.Rw_lock.with_write rw (fun () -> Cthread.work 5_000);
    Locks.Lock_core.unlock m
  in
  let t1 = Cthread.fork ~name:"rw-first" ~proc:1 rw_first in
  Cthread.join t1;
  let t2 = Cthread.fork ~name:"m-first" ~proc:2 m_first in
  Cthread.join t2

let test_rw_writer_lock_order_cycle () =
  let r = Analysis.check (cfg ()) (rw_vs_mutex ~reader:false) in
  check_bool "writer-path nesting inversion is a cycle" true
    (List.mem "lock-order-cycle" (rules r))

let test_rw_reader_lock_order_cycle () =
  (* The read side holds the same lock identity, so a reader nesting
     against a later writer nesting inverts the same edge. *)
  let r = Analysis.check (cfg ()) (rw_vs_mutex ~reader:true) in
  check_bool "reader-path nesting inversion is a cycle" true
    (List.mem "lock-order-cycle" (rules r))

let test_rw_consistent_order_clean () =
  let program () =
    let rw = Locks.Rw_lock.create ~name:"rw" ~home:0 () in
    let m = Locks.Lock.create ~name:"mutex" ~home:0 Locks.Lock.Blocking in
    let x = Ops.alloc1 ~node:0 () in
    let writer =
      Cthread.fork ~name:"writer" ~proc:1 (fun () ->
          Locks.Rw_lock.with_write rw (fun () ->
              Locks.Lock_core.lock m;
              Ops.write x (Ops.read x + 1);
              Locks.Lock_core.unlock m))
    in
    let reader =
      Cthread.fork ~name:"reader" ~proc:2 (fun () ->
          Cthread.work 40_000;
          Locks.Rw_lock.with_read rw (fun () ->
              Locks.Lock_core.lock m;
              ignore (Ops.read x);
              Locks.Lock_core.unlock m))
    in
    Cthread.join_all [ writer; reader ]
  in
  let r = Analysis.check (cfg ()) program in
  check_bool "consistent rw-then-mutex nesting stays clean" true (Analysis.clean r)

(* --- race-report dedupe and epoch collapse ------------------------ *)

let test_race_reports_deduped () =
  (* racy_counter races on the same site pair 5 times over; the report
     must fold them into one finding with an occurrence count. *)
  let r = Analysis.check (cfg ()) Workloads.Buggy.racy_counter in
  let race_diags =
    List.filter (fun d -> d.Analysis.Diag.rule = "data-race") r.Analysis.diags
  in
  check_int "one finding per (site pair, lock sets)" 1 (List.length race_diags);
  match race_diags with
  | [ d ] ->
    let msg = d.Analysis.Diag.message in
    let has_count =
      let n = String.length "occurrences" and m = String.length msg in
      let rec go i =
        i + n <= m && (String.sub msg i n = "occurrences" || go (i + 1))
      in
      go 0
    in
    check_bool "finding carries its occurrence count" true has_count
  | _ -> ()

let test_race_detected_after_thread_churn () =
  (* Many short-lived joined threads first: their vector clocks are
     collapsed into the finish epoch, and detection on the survivors
     must still work afterwards. *)
  let program ~locked () =
    let scratch = Ops.alloc ~node:0 8 in
    for round = 0 to 15 do
      let t =
        Cthread.fork ~name:(Printf.sprintf "short%d" round) ~proc:(1 + (round mod 3))
          (fun () -> Ops.write scratch.(round mod 8) round)
      in
      Cthread.join t
    done;
    let x = Ops.alloc1 ~node:0 () in
    let m = Locks.Lock.create ~home:0 Locks.Lock.Blocking in
    let touch v () =
      if locked then begin
        Locks.Lock_core.lock m;
        Ops.write x v;
        Locks.Lock_core.unlock m
      end
      else Ops.write x v
    in
    let a = Cthread.fork ~name:"late-a" ~proc:1 (touch 1) in
    let b = Cthread.fork ~name:"late-b" ~proc:2 (touch 2) in
    Cthread.join_all [ a; b ]
  in
  let racy = Analysis.check (cfg ()) (program ~locked:false) in
  check_bool "race still detected after churn" true
    (List.mem "data-race" (rules racy));
  let clean = Analysis.check (cfg ()) (program ~locked:true) in
  check_bool "locked variant stays clean after churn" true (Analysis.clean clean)

(* --- packed trace ------------------------------------------------- *)

(* A second recorder on the same machine keeps the raw bus records
   boxed, in arrival order; the packed trace must give them back
   unchanged. Four threads interleave locked updates (annotations and
   scheduling events) with plain and atomic accesses, long enough for
   both the access columns and the side array to grow several times. *)
let test_trace_fidelity () =
  let sim = Sched.create (cfg ()) in
  let trace = Analysis.Trace.attach sim in
  let raw = ref [] in
  Sched.add_event_hook sim (fun ev -> raw := Analysis.Trace.Event ev :: !raw);
  Sched.add_access_hook sim (fun a -> raw := Analysis.Trace.Access a :: !raw);
  Sched.add_annot_hook sim (fun a -> raw := Analysis.Trace.Annot a :: !raw);
  Sched.run sim (fun () ->
      let words = Ops.alloc ~node:1 16 in
      let m = Locks.Lock.create ~home:0 Locks.Lock.Blocking in
      let worker w () =
        for i = 1 to 3_200 do
          Locks.Lock_core.lock m;
          Ops.write words.(i mod 16) (Ops.read words.(w) + i);
          Locks.Lock_core.unlock m;
          ignore (Ops.fetch_and_add words.(15) 1);
          if i mod 50 = 0 then Cthread.yield ()
        done
      in
      Cthread.join_all
        (List.init 4 (fun w -> Cthread.fork ~name:(Printf.sprintf "w%d" w) ~proc:w (worker w))));
  let raw = Array.of_list (List.rev !raw) in
  let count p = Array.fold_left (fun n e -> if p e then n + 1 else n) 0 raw in
  let n_events = count (function Analysis.Trace.Event _ -> true | _ -> false) in
  let n_accesses = count (function Analysis.Trace.Access _ -> true | _ -> false) in
  let n_annots = count (function Analysis.Trace.Annot _ -> true | _ -> false) in
  (* the first access chunk doubles up to 65,536 entries; after it,
     fixed chunks are appended *)
  check_bool "accesses cross two chunk boundaries" true (n_accesses > 2 * 65_536);
  check_bool "events and annotations cross a side-array growth" true
    (n_events + n_annots > 2 * 1024);
  check_int "length" (Array.length raw) (Analysis.Trace.length trace);
  check_int "events counter equals a scan" n_events (Analysis.Trace.events trace);
  check_int "accesses counter equals a scan" n_accesses (Analysis.Trace.accesses trace);
  let seen = ref 0 in
  Analysis.Trace.iteri
    (fun i e ->
      if i <> !seen then Alcotest.failf "iteri position %d, expected %d" i !seen;
      if e <> raw.(i) then Alcotest.failf "iteri entry %d differs from the bus record" i;
      incr seen)
    trace;
  check_int "iteri visits every entry" (Array.length raw) !seen;
  let pos = ref 0 in
  Analysis.Trace.iter
    (fun e ->
      if e <> raw.(!pos) then Alcotest.failf "iter entry %d differs from the bus record" !pos;
      incr pos)
    trace;
  check_int "iter visits every entry" (Array.length raw) !pos;
  let positions keep =
    List.filter (fun i -> keep raw.(i)) (List.init (Array.length raw) Fun.id)
  in
  let walk iteri =
    let visited = ref [] in
    iteri
      (fun i e ->
        if e <> raw.(i) then Alcotest.failf "entry at position %d differs from the bus record" i;
        visited := i :: !visited)
      trace;
    List.rev !visited
  in
  check_bool "iteri_side visits the events and annotations in order, at their positions"
    true
    (walk Analysis.Trace.iteri_side
    = positions (function Analysis.Trace.Access _ -> false | _ -> true));
  (* [skip] passes over exactly the accesses to exempt words: the
     fetch-and-add word and the lock's internals, not the plain words. *)
  let exempt = Analysis.Trace.exempt trace in
  let to_exempt = function
    | Analysis.Trace.Access a ->
      Analysis.Trace.is_exempt exempt (Analysis.Trace.key a.Sched.access_addr)
    | _ -> false
  in
  let kept = walk (Analysis.Trace.iteri ~skip:exempt) in
  check_bool "iteri ~skip visits every entry but the exempt accesses, at their positions"
    true
    (kept = positions (fun e -> not (to_exempt e)));
  check_bool "some accesses skipped, some kept" true
    (List.length kept < Array.length raw
    && List.exists (fun i -> match raw.(i) with Analysis.Trace.Access _ -> true | _ -> false) kept)

(* --- scenario suite ----------------------------------------------- *)

let test_suite_verdicts () =
  List.iter
    (fun s ->
      let report = Analysis_suite.check s in
      match Analysis_suite.verdict s report with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "%s: %s" s.Analysis_suite.scenario_name msg)
    (Analysis_suite.all ())

let test_deterministic_report () =
  let s =
    List.find
      (fun s -> s.Analysis_suite.scenario_name = "buggy-racy-counter")
      (Analysis_suite.all ())
  in
  let r1 = Analysis_suite.check s and r2 = Analysis_suite.check s in
  let render (r : Analysis.report) =
    String.concat "\n" (List.map Analysis.Diag.to_string r.Analysis.diags)
  in
  Alcotest.(check string) "identical diagnostics" (render r1) (render r2);
  check_int "identical event counts" r1.Analysis.events r2.Analysis.events;
  check_int "identical access counts" r1.Analysis.accesses r2.Analysis.accesses

let test_runner_json_deterministic () =
  (* The suite runner parallelizes over domains; its JSON must not
     depend on the domain count. *)
  let picked =
    List.filter
      (fun s ->
        List.mem s.Analysis_suite.scenario_name
          [ "primitives"; "buggy-racy-counter"; "predicted-gated-order" ])
      (Analysis_suite.all ())
  in
  check_int "picked the three scenarios" 3 (List.length picked);
  let run domains =
    Analysis_suite.to_json (Analysis_suite.run_all ~domains ~predict:true picked)
  in
  Alcotest.(check string) "identical JSON at domains 1 and 2" (run 1) (run 2);
  List.iter
    (fun r ->
      check_bool (r.Analysis_suite.r_name ^ " passed") true (Analysis_suite.passed r))
    (Analysis_suite.run_all ~domains:2 ~predict:true picked)

let suite =
  [
    Alcotest.test_case "release-acquire orders" `Quick test_release_acquire_orders;
    Alcotest.test_case "missing edge is a race" `Quick test_missing_edge_is_a_race;
    Alcotest.test_case "fork-join orders" `Quick test_fork_join_orders;
    Alcotest.test_case "wake token orders" `Quick test_wake_token_orders;
    Alcotest.test_case "late atomic exempts the word" `Quick test_late_atomic_exempts;
    Alcotest.test_case "clock length bound" `Quick test_clock_length_bound;
    Alcotest.test_case "exemption memo keeps the race" `Quick test_exempt_memo_keeps_race;
    Alcotest.test_case "sanitize allocation bound" `Quick test_sanitize_allocation;
    Alcotest.test_case "two observers share the bus" `Quick test_two_observers;
    Alcotest.test_case "blocked_spans unmatched block" `Quick
      test_blocked_spans_unmatched_final_block;
    Alcotest.test_case "unlock misuse raises" `Quick test_unlock_not_held_raises;
    Alcotest.test_case "rw writer path in lock-order graph" `Quick
      test_rw_writer_lock_order_cycle;
    Alcotest.test_case "rw reader path in lock-order graph" `Quick
      test_rw_reader_lock_order_cycle;
    Alcotest.test_case "rw consistent nesting clean" `Quick
      test_rw_consistent_order_clean;
    Alcotest.test_case "race reports deduped" `Quick test_race_reports_deduped;
    Alcotest.test_case "race detected after thread churn" `Quick
      test_race_detected_after_thread_churn;
    Alcotest.test_case "packed trace replays the bus records" `Quick test_trace_fidelity;
    Alcotest.test_case "suite verdicts" `Slow test_suite_verdicts;
    Alcotest.test_case "deterministic report" `Quick test_deterministic_report;
    Alcotest.test_case "suite runner json deterministic" `Quick
      test_runner_json_deterministic;
  ]
