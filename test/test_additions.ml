(* Tests for the later additions: histograms, the scheduler event log,
   and the (adaptive) readers-writer lock. *)

open Butterfly
open Cthreads

let cfg = { Config.default with Config.processors = 8 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Histogram *)

(* The histogram's one view is its summary line. *)
let summary_fields h =
  Scanf.sscanf (Repro_stats.Histogram.summary h)
    "n=%d mean=%fus p50=%fus p90=%fus p99=%fus max=%fus"
    (fun n mean p50 p90 p99 max -> (n, mean, p50, p90, p99, max))

let test_histogram_basics () =
  let h = Repro_stats.Histogram.create () in
  Alcotest.(check string) "empty summary" "no samples" (Repro_stats.Histogram.summary h);
  List.iter (Repro_stats.Histogram.add h) [ 1_000; 2_000; 3_000; 4_000; 5_000 ];
  let n, mean, _, _, _, max = summary_fields h in
  check_int "count" 5 n;
  Alcotest.(check (float 0.01)) "mean" 3.0 mean;
  Alcotest.(check (float 0.01)) "max" 5.0 max

let test_histogram_percentiles () =
  let h = Repro_stats.Histogram.create () in
  for i = 1 to 100 do
    Repro_stats.Histogram.add h (i * 1_000)
  done;
  let _, _, p50, _, p99, _ = summary_fields h in
  check_bool "p50 in band" true (p50 >= 45.0 && p50 <= 65.0);
  check_bool "p99 above p50" true (p99 > p50);
  check_bool "p99 near the top" true (p99 >= 90.0)

(* Event views of the trace *)

let test_event_log_counts () =
  let sim = Sched.create cfg in
  let log = Analysis.Trace.attach sim in
  Sched.run sim (fun () ->
      let sleeper =
        Cthread.fork ~proc:1 (fun () ->
            Cthread.block ();
            Cthread.work 10_000)
      in
      let worker = Cthread.fork ~proc:2 (fun () -> Cthread.work 50_000) in
      Cthread.work 100_000;
      Cthread.wakeup sleeper;
      Cthread.join sleeper;
      Cthread.join worker);
  check_int "two forks" 2 (Analysis.Trace.count log Sched.Ev_fork);
  check_int "one block" 1 (Analysis.Trace.count log Sched.Ev_block);
  check_int "one wakeup" 1 (Analysis.Trace.count log Sched.Ev_wakeup);
  check_int "three finishes" 3 (Analysis.Trace.count log Sched.Ev_finish);
  check_int "every event counted under its kind" (Analysis.Trace.events log)
    (List.fold_left
       (fun n k -> n + Analysis.Trace.count log k)
       0
       [ Sched.Ev_fork; Ev_switch; Ev_preempt; Ev_block; Ev_wakeup; Ev_token;
         Ev_token_use; Ev_join; Ev_finish ])

let test_event_log_blocked_spans () =
  let sim = Sched.create cfg in
  let log = Analysis.Trace.attach sim in
  let sleeper_tid = ref 0 in
  Sched.run sim (fun () ->
      let sleeper = Cthread.fork ~proc:1 (fun () -> Cthread.block ()) in
      sleeper_tid := Cthread.id sleeper;
      Cthread.work 200_000;
      Cthread.wakeup sleeper;
      Cthread.join sleeper);
  match Analysis.Trace.blocked_spans log !sleeper_tid with
  | [ (t0, t1) ] -> check_bool "span is positive" true (t1 > t0)
  | other -> Alcotest.failf "expected one span, got %d" (List.length other)

let test_event_log_timeline () =
  let sim = Sched.create cfg in
  let log = Analysis.Trace.attach sim in
  Sched.run sim (fun () ->
      let ts =
        List.init 3 (fun i ->
            Cthread.fork ~proc:1 (fun () -> Cthread.work (50_000 * (i + 1))))
      in
      Cthread.join_all ts);
  let horizon = Sched.final_time sim in
  let s = Analysis.Trace.timeline log ~horizon in
  check_bool "timeline renders lanes" true (String.length s > 100);
  check_bool "summary mentions switches" true
    (Analysis.Trace.count log Sched.Ev_switch > 0)

(* Readers-writer lock *)

let test_rw_readers_overlap () =
  let peak = ref 0 and inside = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let rw = Locks.Rw_lock.create ~home:0 () in
        let reader () =
          Locks.Rw_lock.with_read rw (fun () ->
              incr inside;
              if !inside > !peak then peak := !inside;
              Cthread.work 800_000;
              decr inside)
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(i + 1) reader) in
        Cthread.join_all ts)
  in
  check_bool "readers ran concurrently" true (!peak >= 2)

(* Regression for the stranded-reader bug: a reader whose guarded probe
   failed purely from CAS contention with other readers used to
   register on the sleeper list, which only a writer's unlock drains —
   reader-only traffic then deadlocked. With a policy that sends every
   failed probe straight to the sleep path and no writer ever arriving,
   the churn must still terminate. *)
let test_rw_reader_only_churn_terminates () =
  let acqs = ref 0 in
  let rounds = 40 and readers = 6 in
  let (_ : Sched.t) =
    run (fun () ->
        let policy =
          Locks.Waiting.make ~node:0 ~spin_count:0 ~delay_ns:0 ~backoff:false
            ~sleep:true ~timeout_ns:0 ()
        in
        let rw = Locks.Rw_lock.create ~policy ~home:0 () in
        let reader () =
          for _ = 1 to rounds do
            Locks.Rw_lock.with_read rw (fun () -> Cthread.work 1_000)
          done
        in
        let ts = List.init readers (fun i -> Cthread.fork ~proc:(i + 1) reader) in
        Cthread.join_all ts;
        acqs := Locks.Rw_lock.reader_acquisitions rw)
  in
  check_int "every acquisition completed" (rounds * readers) !acqs

let test_rw_writer_exclusive () =
  let value = ref 0 and races = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let rw = Locks.Rw_lock.create ~home:0 () in
        let writer () =
          for _ = 1 to 10 do
            Locks.Rw_lock.with_write rw (fun () ->
                let v = !value in
                Cthread.work 5_000;
                value := v + 1)
          done
        in
        let reader () =
          for _ = 1 to 10 do
            Locks.Rw_lock.with_read rw (fun () ->
                let a = !value in
                Cthread.work 2_000;
                if !value <> a then incr races);
            Cthread.work 5_000
          done
        in
        let ws = List.init 2 (fun i -> Cthread.fork ~proc:(i + 1) writer) in
        let rs = List.init 3 (fun i -> Cthread.fork ~proc:(i + 3) reader) in
        Cthread.join_all (ws @ rs))
  in
  check_int "writers serialized" 20 !value;
  check_int "readers never saw a torn write" 0 !races

let test_rw_writer_pref_reduces_writer_wait () =
  let wait_under ~adaptive =
    let w = ref 0.0 in
    let (_ : Sched.t) =
      run (fun () ->
          let rw = Locks.Rw_lock.create ~adaptive ~home:0 () in
          let reader () =
            for _ = 1 to 30 do
              Locks.Rw_lock.with_read rw (fun () -> Cthread.work 30_000);
              Cthread.work 2_000
            done
          in
          let writer () =
            for _ = 1 to 8 do
              Cthread.work 80_000;
              Locks.Rw_lock.with_write rw (fun () -> Cthread.work 10_000)
            done
          in
          let rs = List.init 5 (fun i -> Cthread.fork ~proc:(i + 1) reader) in
          let wt = Cthread.fork ~proc:6 writer in
          Cthread.join_all (wt :: rs);
          w := Locks.Rw_lock.mean_writer_wait_ns rw)
    in
    !w
  in
  (* The adaptive lock flips to writer preference once a writer waits. *)
  check_bool "writer preference lowers writer waits" true
    (wait_under ~adaptive:true < wait_under ~adaptive:false)

let test_rw_adaptive_switches () =
  let switches = ref 0 and final_pref = ref Locks.Rw_lock.Reader_pref in
  let (_ : Sched.t) =
    run (fun () ->
        let rw = Locks.Rw_lock.create ~adaptive:true ~home:0 () in
        (* Phase 1: read-only traffic. *)
        let rs =
          List.init 4 (fun i ->
              Cthread.fork ~proc:(i + 1) (fun () ->
                  for _ = 1 to 20 do
                    Locks.Rw_lock.with_read rw (fun () -> Cthread.work 10_000);
                    Cthread.work 3_000
                  done))
        in
        Cthread.join_all rs;
        let pref_after_reads = Locks.Rw_lock.preference rw in
        (* Phase 2: writers pile in alongside readers. *)
        let ws =
          List.init 2 (fun i ->
              Cthread.fork ~proc:(i + 5) (fun () ->
                  for _ = 1 to 12 do
                    Locks.Rw_lock.with_write rw (fun () -> Cthread.work 40_000);
                    Cthread.work 5_000
                  done))
        in
        let rs =
          List.init 4 (fun i ->
              Cthread.fork ~proc:(i + 1) (fun () ->
                  for _ = 1 to 20 do
                    Locks.Rw_lock.with_read rw (fun () -> Cthread.work 10_000);
                    Cthread.work 3_000
                  done))
        in
        Cthread.join_all (ws @ rs);
        switches := Locks.Rw_lock.adaptations rw;
        final_pref := Locks.Rw_lock.preference rw;
        Alcotest.(check bool) "stayed reader-pref while read-only" true
          (pref_after_reads = Locks.Rw_lock.Reader_pref))
  in
  check_bool "adapted at least once under writer pressure" true (!switches >= 1)

let suite =
  [
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "event log counts" `Quick test_event_log_counts;
    Alcotest.test_case "event log blocked spans" `Quick test_event_log_blocked_spans;
    Alcotest.test_case "event log timeline" `Quick test_event_log_timeline;
    Alcotest.test_case "rw: readers overlap" `Quick test_rw_readers_overlap;
    Alcotest.test_case "rw: reader-only churn terminates" `Quick
      test_rw_reader_only_churn_terminates;
    Alcotest.test_case "rw: writer exclusive" `Quick test_rw_writer_exclusive;
    Alcotest.test_case "rw: writer preference" `Quick test_rw_writer_pref_reduces_writer_wait;
    Alcotest.test_case "rw: adaptive switches" `Quick test_rw_adaptive_switches;
  ]
