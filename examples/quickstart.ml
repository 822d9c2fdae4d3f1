(* Quickstart: create a simulated Butterfly machine, fork threads, and
   watch an adaptive lock tune itself.

   Run with: dune exec examples/quickstart.exe *)

open Butterfly
open Cthreads

let () =
  (* An 8-processor NUMA machine with the default (GP1000-like) cost
     model. *)
  let machine = Sched.create { Config.default with Config.processors = 8 } in
  (* [Sched.run] returns what the main thread returns: here the lock's
     adaptation log and statistics. *)
  let log, stats =
    Sched.run machine (fun () ->
        (* An adaptive lock homed on node 0, with the paper's simple-adapt
           policy sampling the waiting-thread count every other unlock.
           Its feedback loop ticks inside [Lock_core.unlock]. *)
        let lock = Locks.Lock.create ~name:"demo-lock" ~home:0 Locks.Lock.adaptive_default in
        let loop = Option.get (Locks.Lock_core.feedback lock) in
        (* The loop's latest transition names the current configuration;
           before the first one the lock runs combined(n). *)
        let mode () =
          match List.rev (Adaptive_core.Adaptive.log loop) with
          | (_, label) :: _ -> label
          | [] -> Locks.Spin_budget.(mode_of ~cap:default_params.spin_cap default_params.n)
        in

        (* Phase 1: a single thread using the lock — no contention, so
           the policy will configure pure spinning. *)
        for _ = 1 to 10 do
          Locks.Lock_core.lock lock;
          Cthread.work 5_000;
          Locks.Lock_core.unlock lock
        done;
        Printf.printf "configuration after solo phase drained:  %s\n" (mode ());

        (* Phase 2: seven threads fight over long critical sections — the
           policy backs off the spin budget toward blocking. *)
        let worker i =
          Cthread.fork ~name:(Printf.sprintf "worker%d" i) ~proc:(1 + (i mod 7))
            (fun () ->
              for _ = 1 to 12 do
                Locks.Lock_core.lock lock;
                Cthread.work 200_000;
                Locks.Lock_core.unlock lock;
                Cthread.work 10_000
              done)
        in
        let workers = List.init 7 worker in
        Cthread.join_all workers;
        Printf.printf
          "configuration after storm phase drained: %s (see log below for the\n\
          \  in-storm configuration)\n"
          (mode ());

        (* Phase 3: back to one thread. *)
        for _ = 1 to 10 do
          Locks.Lock_core.lock lock;
          Cthread.work 5_000;
          Locks.Lock_core.unlock lock
        done;
        Printf.printf "configuration after quiet phase:          %s\n\n" (mode ());
        (Adaptive_core.Adaptive.log loop, Locks.Lock_core.stats lock))
  in
  Printf.printf "adaptation log (virtual time -> configuration):\n";
  List.iter
    (fun (t, label) -> Printf.printf "  %8.2f ms  %s\n" (float_of_int t /. 1e6) label)
    log;
  Printf.printf "\nlock statistics:\n  %s\n" (Format.asprintf "%a" Locks.Lock_stats.pp stats);
  Printf.printf "\nvirtual time elapsed: %.2f ms (simulated on one host core)\n"
    (float_of_int (Sched.final_time machine) /. 1e6)
