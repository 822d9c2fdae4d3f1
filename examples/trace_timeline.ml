(* Execution tracing: attach a trace recorder to a machine and render
   the per-processor execution timeline from its scheduling events —
   the offline half of the general-purpose monitoring story.

   Run with: dune exec examples/trace_timeline.exe *)

open Butterfly
open Cthreads

let () =
  let machine = Sched.create { Config.default with Config.processors = 4 } in
  let trace = Analysis.Trace.attach machine in
  Sched.run machine (fun () ->
      let lk = Locks.Lock.create ~home:0 Locks.Lock.Blocking in
      let worker i () =
        for _ = 1 to 4 do
          Cthread.work (40_000 * (i + 1));
          Locks.Lock_core.lock lk;
          Cthread.work 120_000;
          Locks.Lock_core.unlock lk
        done
      in
      let ts = List.init 6 (fun i -> Cthread.fork ~proc:(1 + (i mod 3)) (worker i)) in
      Cthread.join_all ts);
  let horizon = Sched.final_time machine in
  print_string (Analysis.Trace.timeline trace ~horizon);
  Printf.printf "\nevents: %s\n" (Analysis.Trace.event_counts trace);
  Printf.printf "virtual time: %.2f ms, %d events recorded\n"
    (float_of_int horizon /. 1e6)
    (Analysis.Trace.events trace);
  (* Show how long thread 3 spent asleep on the lock. *)
  let spans = Analysis.Trace.blocked_spans trace 3 in
  Printf.printf "thread 3 slept %d times, %.2f ms total\n" (List.length spans)
    (float_of_int (List.fold_left (fun acc (a, b) -> acc + b - a) 0 spans) /. 1e6)
