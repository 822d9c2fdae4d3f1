(* The fast-path determinism suite: batched memory charging and op
   fusion are pure host-side accelerations, so every shipped artifact
   must be byte-identical with them enabled (the default), with fusion
   alone, and with both disabled. Each test renders one artifact under
   the three mode combinations and compares the bytes. *)

open Butterfly

(* Both accelerations are on by default; restore that afterwards. *)
let with_modes ~fast ~fusion f =
  Sched.set_fast_paths fast;
  Sched.set_op_fusion fusion;
  Fun.protect
    ~finally:(fun () ->
      Sched.set_fast_paths true;
      Sched.set_op_fusion true)
    f

(* Render [render] with both accelerations on (the default), with
   fusion alone (fused effects through the general dispatcher), and
   with neither (the fully decomposed legacy path); all three must
   produce the same bytes. *)
let ab name render =
  let accelerated = with_modes ~fast:true ~fusion:true render in
  let fused_only = with_modes ~fast:false ~fusion:true render in
  let legacy = with_modes ~fast:false ~fusion:false render in
  Alcotest.(check string) (name ^ ": accelerated = legacy") legacy accelerated;
  Alcotest.(check string) (name ^ ": fusion-only = legacy") legacy fused_only

let take n l = List.filteri (fun i _ -> i < n) l

(* {2 Soak workload} *)

let render_soak spec () =
  let r = Workloads.Soak.run spec in
  Printf.sprintf "events=%d final_ns=%d checksum=%d" r.Workloads.Soak.events
    r.Workloads.Soak.final_ns r.Workloads.Soak.checksum

let test_soak () = ab "soak" (render_soak Workloads.Soak.default)

let test_soak_uniprocessor () =
  (* No phase B: every dispatch is single-runnable, so the accelerated
     run spends its whole life on the fast path. *)
  ab "soak (uniprocessor)"
    (render_soak { Workloads.Soak.default with processors = 1; rounds = 8 })

(* {2 Shipped artifacts} *)

let test_analysis () =
  let scenarios =
    take 2 (Analysis_suite.shipped ()) @ take 1 (Analysis_suite.buggy ())
  in
  ab "ANALYSIS_results.json" (fun () ->
      Analysis_suite.to_json
        (Analysis_suite.run_all ~domains:1 ~predict:false ~confirm:false
           scenarios))

let test_chaos () =
  let scenarios = take 2 (Analysis_suite.shipped ()) in
  ab "CHAOS_results.json" (fun () ->
      Chaos.to_json (Chaos.sweep ~domains:1 ~seeds:[ 7; 11 ] ~scenarios ()))

let test_policy () =
  let module PC = Analysis.Policy_check in
  ab "POLICY_results.json" (fun () ->
      let shipped = PC.run (PC.shipped ()) in
      let fixtures =
        List.map
          (fun (name, specs, expect) -> PC.check_fixture ~name ~expect specs)
          (Analysis_suite.policy_fixtures ())
      in
      PC.to_json ~shipped ~fixtures)

let render_to_buffer print =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  print ~out;
  Format.pp_print_flush out ();
  Buffer.contents buf

let test_objects () =
  ab "OBJECTS report" (fun () ->
      render_to_buffer (fun ~out -> Experiments.Report.print_objects ~out ~domains:1 ()))

let test_table5 () =
  ab "Table 5" (fun () ->
      render_to_buffer (fun ~out ->
          Experiments.Report.print_lock_table out ~title:"Table 5"
            ~paper:Experiments.Paper.table5
            (Experiments.Lock_tables.table5 ~domains:1 ())))

let test_fig1_csv () =
  (* A shrunken Figure 1 grid, rendered through the shipping CSV
     writer. *)
  let base =
    {
      Workloads.Csweep.default with
      Workloads.Csweep.processors = 4;
      threads_per_proc = 2;
      iterations = 6;
    }
  in
  ab "fig1.csv" (fun () ->
      Experiments.Fig1.csv_string
        (Experiments.Fig1.of_sweep
           (Workloads.Csweep.sweep ~domains:1 ~base ~cs_lengths:[ 5_000; 100_000 ]
              ~kinds:Experiments.Paper.figure1_lock_kinds ())))

(* {2 Forced dispatch} *)

let test_forced_dispatch () =
  (* A timer kills a blocked thread, which readies its joiner on
     processor 1, and forces the next dispatch to main. That dispatch
     takes no [pick], so the runnable count of the pick before the
     timer (main's processor alone) is stale: were the forced slice
     fast on it, main's polls would run on past the joiner's write. *)
  let cfg = { Config.default with Config.processors = 2 } in
  ab "forced dispatch" (fun () ->
      let sim = Sched.create cfg in
      Sched.add_timer sim ~at:1_000_000 (fun () ->
          ignore (Sched.kill_thread sim ~tid:1 ~at:1_000_000 : bool);
          Sched.set_schedule_control sim [ 0 ]);
      let polls = ref 0 in
      Sched.run sim (fun () ->
          let flag = Ops.alloc1 ~node:0 () in
          let victim = Ops.fork { Ops.f = Ops.block; proc = Some 1; prio = 0; name = "" } in
          let joiner =
            Ops.fork
              {
                Ops.f = (fun () -> Ops.join victim; Ops.write flag 1);
                proc = Some 1;
                prio = 0;
                name = "";
              }
          in
          while Ops.read flag = 0 do
            incr polls;
            Ops.work 1_000
          done;
          Ops.join joiner);
      Printf.sprintf "polls=%d events=%d final=%d diverged=%b" !polls
        (Sched.events_executed sim) (Sched.final_time sim) (Sched.control_diverged sim))

(* {2 Lookahead}

   A fast slice charges an operation directly only while the
   dispatcher would pick its thread again: below the key of every
   processor with a lower id, and up to and including the key of every
   processor with a higher one. *)

let test_tie_break () =
  (* Two workers on processors 1 and 2 wake at the same instant and
     then only compute in equal steps, so their clocks tie at every
     step and the tie-break alone orders them. Each step appends its
     worker's id to a host-side trail when the step completes. Were
     processor 1's key admitted as a bound for processor 2 (one past
     its key, as for a processor above), processor 2 would run its
     next step before processor 1's step completing at the same time,
     and the trail and the recorded schedule would both change. *)
  let cfg = { Config.default with Config.processors = 3 } in
  ab "tie-break" (fun () ->
      let sim = Sched.create cfg in
      Sched.set_record_schedule sim true;
      let trail = Buffer.create 128 in
      Sched.run sim (fun () ->
          (* far enough ahead that both forks have completed *)
          let at = Ops.now () + 1_000_000 in
          let worker id proc =
            Ops.fork
              {
                Ops.f =
                  (fun () ->
                    Ops.delay (at - Ops.now ());
                    for _ = 1 to 20 do
                      Ops.work 1_000;
                      Buffer.add_char trail id
                    done);
                proc = Some proc;
                prio = 0;
                name = "";
              }
          in
          let a = worker 'a' 1 and b = worker 'b' 2 in
          Ops.join a;
          Ops.join b);
      Printf.sprintf "trail=%s final=%d events=%d schedule=%s" (Buffer.contents trail)
        (Sched.final_time sim) (Sched.events_executed sim)
        (String.concat "," (List.map string_of_int (Sched.recorded_schedule sim))))

let test_fused_tails () =
  (* Two spinners take turns on one lock word with probes whose entry
     overhead, retry overhead and backoff differ per processor; the
     holder's long critical section puts its clock far ahead, so the
     waiter probes directly until its slice's limit, which lands in
     every stage of a probe in turn. A poller then spins on a hint
     word against a setter whose clock runs far ahead. The accelerated
     run so reaches each fused remainder (entry overhead onward,
     test-and-set onward, the retry tail, the hint read onward) and
     each must stage its dispatches exactly as the decomposed sequence
     does. *)
  let cfg = { Config.default with Config.processors = 5 } in
  ab "fused tails" (fun () ->
      let sim = Sched.create cfg in
      Sched.set_record_schedule sim true;
      let trail = Buffer.create 256 in
      Sched.run sim (fun () ->
          let lock = Ops.alloc1 ~node:1 () and flag = Ops.alloc1 ~node:4 () in
          let spinner proc =
            Ops.fork
              {
                Ops.f =
                  (fun () ->
                    for i = 1 to 12 do
                      let until = if i mod 4 = 0 then Ops.now () + 9_000 else max_int in
                      let rec probe () =
                        match
                          Ops.lock_probe_timed ~pre_instrs:(proc + 1) ~retry_instrs:(40 * proc)
                            ~gap_ns:(311 * proc) ~until lock
                        with
                        | Ops.Probe_acquired -> true
                        | Ops.Probe_expired -> false
                        | Ops.Probe_retrying -> probe ()
                      in
                      if probe () then begin
                        Buffer.add_char trail (Char.chr (Char.code '0' + proc));
                        Ops.work (20_000 + (737 * i));
                        Ops.write lock 0
                      end
                      else Buffer.add_char trail 'x'
                    done);
                proc = Some proc;
                prio = 0;
                name = "";
              }
          in
          List.iter Ops.join (List.map spinner [ 1; 2 ]);
          (* A hint spin against a setter whose clock runs far ahead. *)
          let poller =
            Ops.fork
              {
                Ops.f =
                  (fun () ->
                    while Ops.read_hint ~pre_ns:250 ~gap_ns:900 ~expect:0 flag = 0 do
                      Buffer.add_char trail '.'
                    done);
                proc = Some 4;
                prio = 0;
                name = "";
              }
          in
          let setter =
            Ops.fork
              {
                Ops.f =
                  (fun () ->
                    for _ = 1 to 6 do
                      Ops.work 9_000
                    done;
                    Ops.write flag 1);
                proc = Some 3;
                prio = 0;
                name = "";
              }
          in
          Ops.join setter;
          Ops.join poller);
      Printf.sprintf "trail=%s final=%d events=%d schedule=%s" (Buffer.contents trail)
        (Sched.final_time sim) (Sched.events_executed sim)
        (Digest.to_hex
           (Digest.string
              (String.concat "," (List.map string_of_int (Sched.recorded_schedule sim))))))

(* The primitives scenario's seed-2 swap-fault plan kills a lock holder
   and leaves its waiters spinning until the event budget aborts the
   run: the chaos harness's livelock, with the Trace sanitizer
   subscribed, fault timers armed, the watchdog queued and the schedule
   recorded. The harness is rebuilt here around [Chaos]'s own steps so
   the test can watch the machine. *)
let livelock_scenario () =
  let scenario =
    List.find
      (fun s -> s.Analysis_suite.scenario_name = "primitives")
      (Analysis_suite.shipped ())
  in
  { scenario with
    Analysis_suite.config = { scenario.Analysis_suite.config with Config.max_events = 60_000 } }

let test_subscribed_livelock () =
  let scenario = livelock_scenario () in
  ab "chaos primitives seed 2" (fun () ->
      Chaos.to_json [ Chaos.run_scenario ~swap_faults:true ~scenario ~seed:2 () ]);
  let plan =
    Faults.Fault_plan.generate ~swap_faults:true
      ~seed:(2 + (1_000_003 * Hashtbl.hash "primitives"))
      ~cfg:scenario.Analysis_suite.config ~horizon_ns:3_000_000 ()
  in
  (* Counter cells are folded at slice end, so an access hook that sees
     them behind the accesses it was handed was called from a fast
     charge. *)
  let run () =
    let sim = Sched.create scenario.Analysis_suite.config in
    Sched.set_record_schedule sim true;
    ignore (Analysis.Trace.attach sim : Analysis.Trace.t);
    ignore (Faults.Injector.install sim ~plan : Faults.Injector.t);
    let seen = ref 0 and lagged = ref 0 in
    Sched.add_access_hook sim (fun _ ->
        incr seen;
        let count = Engine.Counters.get (Sched.counters sim) in
        if count "mem.read" + count "mem.write" + count "mem.atomic" < !seen then incr lagged);
    let outcome =
      Sched.run_outcome sim (fun () ->
          let wd = Monitoring.Watchdog.start ~sched:sim () in
          scenario.Analysis_suite.program ();
          Monitoring.Watchdog.stop wd)
    in
    let rendered =
      Printf.sprintf "%s events=%d final=%d accesses=%d schedule=%s"
        (match outcome with
        | Sched.Completed -> "completed"
        | Sched.Aborted { reason; diagnostics } ->
          Sched.abort_reason_message reason ^ "\n" ^ diagnostics)
        (Sched.events_executed sim) (Sched.final_time sim) !seen
        (Digest.to_hex
           (Digest.string
              (String.concat "," (List.map string_of_int (Sched.recorded_schedule sim)))))
    in
    (rendered, !lagged)
  in
  let accelerated, lagged = with_modes ~fast:true ~fusion:true run in
  let fused_only, _ = with_modes ~fast:false ~fusion:true run in
  let legacy, legacy_lagged = with_modes ~fast:false ~fusion:false run in
  Alcotest.(check bool) "budget abort" true
    (String.starts_with ~prefix:"event limit exceeded" legacy);
  Alcotest.(check string) "schedule: accelerated = legacy" legacy accelerated;
  Alcotest.(check string) "schedule: fusion-only = legacy" legacy fused_only;
  Alcotest.(check int) "no access from a fast charge when fast paths are off" 0
    legacy_lagged;
  Alcotest.(check bool) "accesses from fast charges" true (lagged > 0)

(* {2 Host-side allocation bound} *)

let test_fast_path_allocation () =
  (* 1k uncontended spin lock/unlock pairs on the fast path must not
     allocate per iteration: the point of batched charging is that an
     accelerated op is a few array updates, not an effect performance
     with its continuation capture. The bound leaves room for the
     [Gc.minor_words] calls themselves and stray constants, but a
     single boxed value per iteration (>= 2000 words) would trip it. *)
  with_modes ~fast:true ~fusion:true (fun () ->
      let sim = Sched.create Config.default in
      let per_iter = ref infinity in
      Sched.run sim (fun () ->
          let lk = Cthreads.Spin.create ~node:0 () in
          Cthreads.Spin.lock lk;
          Cthreads.Spin.unlock lk;
          let iters = 1_000 in
          let before = Gc.minor_words () in
          for _ = 1 to iters do
            Cthreads.Spin.lock lk;
            Cthreads.Spin.unlock lk
          done;
          per_iter := (Gc.minor_words () -. before) /. float_of_int iters);
      if !per_iter >= 1.0 then
        Alcotest.failf "fast spin iteration allocates: %.2f minor words/iter"
          !per_iter)

let test_dispatch_allocation () =
  (* Eight processors with three threads each keep several processors
     runnable at once, so almost every event goes through the effect
     path and a dispatch. Each one allocates its continuation and its
     suspended operation; the bound catches the dispatcher's own
     bookkeeping coming back (a closure or a boxed pick result per
     dispatch adds several words per event). *)
  with_modes ~fast:true ~fusion:true (fun () ->
      let cfg = { Config.default with Config.processors = 8 } in
      let sim = Sched.create cfg in
      let before = Gc.minor_words () in
      Sched.run sim (fun () ->
          let words = Ops.alloc ~node:0 16 in
          let workers =
            List.init 24 (fun i ->
                Ops.fork
                  {
                    Ops.f =
                      (fun () ->
                        for j = 1 to 200 do
                          let a = words.((i + j) mod 16) in
                          Ops.write a (Ops.read a + j);
                          Ops.work 2_000
                        done);
                    proc = Some (i mod 8);
                    prio = 0;
                    name = "";
                  })
          in
          List.iter Ops.join workers);
      let per_event =
        (Gc.minor_words () -. before) /. float_of_int (Sched.events_executed sim)
      in
      if per_event >= 20.0 then
        Alcotest.failf "multi-runnable dispatch allocates %.1f minor words/event" per_event)

let suite =
  [
    Alcotest.test_case "soak A/B" `Quick test_soak;
    Alcotest.test_case "soak A/B uniprocessor" `Quick test_soak_uniprocessor;
    Alcotest.test_case "analysis A/B" `Quick test_analysis;
    Alcotest.test_case "chaos A/B" `Quick test_chaos;
    Alcotest.test_case "policy A/B" `Quick test_policy;
    Alcotest.test_case "objects A/B" `Quick test_objects;
    Alcotest.test_case "table5 A/B" `Quick test_table5;
    Alcotest.test_case "fig1 csv A/B" `Quick test_fig1_csv;
    Alcotest.test_case "forced dispatch A/B" `Quick test_forced_dispatch;
    Alcotest.test_case "lookahead tie-break A/B" `Quick test_tie_break;
    Alcotest.test_case "fused tails A/B" `Quick test_fused_tails;
    Alcotest.test_case "subscribed livelock A/B" `Quick test_subscribed_livelock;
    Alcotest.test_case "fast path allocation" `Quick test_fast_path_allocation;
    Alcotest.test_case "dispatch allocation" `Quick test_dispatch_allocation;
  ]
