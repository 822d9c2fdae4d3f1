(* Thread-package tests: fork/join sugar, spin mutex, semaphore,
   barrier. *)

open Butterfly
open Cthreads

let cfg = { Config.default with Config.processors = 8 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let test_fork_join_sugar () =
  let hits = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let ts = List.init 5 (fun i -> Cthread.fork ~proc:(i mod 4) (fun () -> incr hits)) in
        Cthread.join_all ts)
  in
  Alcotest.(check int) "all children ran" 5 !hits

let test_self_and_equal () =
  let ok = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let child = Cthread.fork (fun () -> ()) in
        let me = Cthread.self () in
        ok := child <> me && me = Cthread.self ();
        Cthread.join child)
  in
  Alcotest.(check bool) "identity behaves" true !ok

let test_spin_mutual_exclusion () =
  (* Increment a host-side counter under a spin mutex from many threads;
     interleaved read-modify-write without the mutex would lose updates
     (each iteration spans several simulated ops). *)
  let shared = ref 0 in
  let iterations = 50 and nthreads = 6 in
  let (_ : Sched.t) =
    run (fun () ->
        let mu = Spin.create ~node:0 () in
        let body () =
          for _ = 1 to iterations do
            Spin.lock mu;
            let v = !shared in
            Cthread.work 2_000;
            shared := v + 1;
            Spin.unlock mu
          done
        in
        let ts = List.init nthreads (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts)
  in
  Alcotest.(check int) "no lost updates" (iterations * nthreads) !shared

let test_spin_try_lock () =
  let first = ref false and second = ref true in
  let (_ : Sched.t) =
    run (fun () ->
        let mu = Spin.create () in
        first := Spin.try_lock mu;
        second := Spin.try_lock mu;
        Spin.unlock mu)
  in
  Alcotest.(check bool) "first try wins" true !first;
  Alcotest.(check bool) "second try fails" false !second

let test_semaphore_bounds_concurrency () =
  let permits = 2 in
  let inside = ref 0 and peak = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let sem = Semaphore.create ~node:0 permits in
        let body () =
          Semaphore.acquire sem;
          incr inside;
          if !inside > !peak then peak := !inside;
          Cthread.work 20_000;
          decr inside;
          Semaphore.release sem
        in
        let ts = List.init 6 (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts)
  in
  Alcotest.(check bool) "bounded by permits" true (!peak <= permits);
  Alcotest.(check bool) "some concurrency happened" true (!peak >= 1)

let test_semaphore_try_acquire () =
  let got = ref (-1) in
  let (_ : Sched.t) =
    run (fun () ->
        let sem = Semaphore.create 1 in
        let a = Semaphore.try_acquire sem in
        let b = Semaphore.try_acquire sem in
        Semaphore.release sem;
        let c = Semaphore.try_acquire sem in
        got := Bool.to_int a + (2 * Bool.to_int b) + (4 * Bool.to_int c))
  in
  Alcotest.(check int) "try pattern a=yes b=no c=yes" 5 !got

let test_semaphore_fifo_handoff () =
  let order = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let sem = Semaphore.create ~node:0 0 in
        let waiter i =
          Cthread.fork ~proc:(i + 1) ~name:(Printf.sprintf "w%d" i) (fun () ->
              (* Stagger arrivals so the FIFO order is deterministic. *)
              Cthread.work (i * 50_000);
              Semaphore.acquire sem;
              order := i :: !order)
        in
        let ts = List.init 3 waiter in
        Cthread.work 500_000;
        Semaphore.release sem;
        Cthread.work 50_000;
        Semaphore.release sem;
        Cthread.work 50_000;
        Semaphore.release sem;
        Cthread.join_all ts)
  in
  Alcotest.(check (list int)) "released in arrival order" [ 0; 1; 2 ] (List.rev !order)

let test_barrier_synchronizes () =
  let parties = 4 in
  let before = ref 0 and anomalies = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let b = Barrier.create ~node:0 parties in
        let body i () =
          Cthread.work (10_000 * (i + 1));
          incr before;
          Barrier.await b;
          (* After the barrier every party must observe all arrivals. *)
          if !before <> parties then incr anomalies
        in
        let ts = List.init parties (fun i -> Cthread.fork ~proc:(i + 1) (body i)) in
        Cthread.join_all ts)
  in
  Alcotest.(check int) "no thread passed early" 0 !anomalies

let test_barrier_reusable () =
  let parties = 3 and cycles = 4 in
  let log = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let b = Barrier.create ~node:0 parties in
        let body i () =
          for c = 1 to cycles do
            Cthread.work (5_000 * (i + 1));
            Barrier.await b;
            if i = 0 then log := c :: !log
          done
        in
        let ts = List.init parties (fun i -> Cthread.fork ~proc:(i + 1) (body i)) in
        Cthread.join_all ts)
  in
  Alcotest.(check (list int)) "all cycles completed" [ 1; 2; 3; 4 ] (List.rev !log)

let test_priority_roundtrip () =
  let p = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let t = Cthread.fork ~prio:2 (fun () -> Cthread.work 100) in
        Cthread.set_priority t 5;
        p := Cthread.priority t;
        Cthread.join t)
  in
  Alcotest.(check int) "priority readable" 5 !p

let suite =
  [
    Alcotest.test_case "fork/join sugar" `Quick test_fork_join_sugar;
    Alcotest.test_case "self/equal" `Quick test_self_and_equal;
    Alcotest.test_case "spin mutual exclusion" `Quick test_spin_mutual_exclusion;
    Alcotest.test_case "spin try_lock" `Quick test_spin_try_lock;
    Alcotest.test_case "semaphore bounds concurrency" `Quick test_semaphore_bounds_concurrency;
    Alcotest.test_case "semaphore try_acquire" `Quick test_semaphore_try_acquire;
    Alcotest.test_case "semaphore fifo" `Quick test_semaphore_fifo_handoff;
    Alcotest.test_case "barrier synchronizes" `Quick test_barrier_synchronizes;
    Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
    Alcotest.test_case "priority roundtrip" `Quick test_priority_roundtrip;
  ]
