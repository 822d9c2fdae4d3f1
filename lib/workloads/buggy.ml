open Butterfly
open Cthreads

(* Every scenario here is deliberately wrong in exactly one way, so
   the sanitizers in [lib/analysis] have known-positive inputs. Each
   needs a machine with at least [processors] processors. *)

let processors = 4

let racy_counter () =
  let counter = Ops.alloc1 ~node:0 () in
  let bump () =
    for _ = 1 to 5 do
      (* Read-modify-write with no lock: the classic lost update. *)
      let v = Ops.read counter in
      Cthread.work 5_000;
      Ops.write counter (v + 1)
    done
  in
  let a = Cthread.fork ~name:"racer-a" ~proc:1 bump in
  let b = Cthread.fork ~name:"racer-b" ~proc:2 bump in
  Cthread.join_all [ a; b ]

let lock_order_inversion () =
  let la = Locks.Lock.create ~name:"lock-a" ~home:0 Locks.Lock.Blocking in
  let lb = Locks.Lock.create ~name:"lock-b" ~home:0 Locks.Lock.Blocking in
  let pair first second () =
    Locks.Lock_core.lock first;
    Cthread.work 10_000;
    Locks.Lock_core.lock second;
    Cthread.work 10_000;
    Locks.Lock_core.unlock second;
    Locks.Lock_core.unlock first
  in
  (* Run the two orders one after the other: this run cannot deadlock,
     but the cycle a -> b -> a is in the lock-order graph all the
     same. *)
  let t1 = Cthread.fork ~name:"ab" ~proc:1 (pair la lb) in
  Cthread.join t1;
  let t2 = Cthread.fork ~name:"ba" ~proc:2 (pair lb la) in
  Cthread.join t2

let true_deadlock () =
  let la = Locks.Lock.create ~name:"lock-a" ~home:0 Locks.Lock.Blocking in
  let lb = Locks.Lock.create ~name:"lock-b" ~home:0 Locks.Lock.Blocking in
  let pair name first second () =
    ignore name;
    Locks.Lock_core.lock first;
    (* Long enough that both threads hold their first lock before
       either requests its second. *)
    Cthread.work 200_000;
    Locks.Lock_core.lock second;
    Locks.Lock_core.unlock second;
    Locks.Lock_core.unlock first
  in
  let t1 = Cthread.fork ~name:"ab" ~proc:1 (pair "ab" la lb) in
  let t2 = Cthread.fork ~name:"ba" ~proc:2 (pair "ba" lb la) in
  Cthread.join_all [ t1; t2 ]

let double_unlock () =
  (* The raw spin mutex has no owner word, so the second unlock is
     silent at runtime — only the lint sees it. *)
  let mu = Spin.create ~node:0 () in
  Spin.lock mu;
  Cthread.work 5_000;
  Spin.unlock mu;
  Spin.unlock mu

let exit_while_holding () =
  let lk = Locks.Lock.create ~name:"leaked-lock" ~home:0 Locks.Lock.Blocking in
  let t =
    Cthread.fork ~name:"leaker" ~proc:1 (fun () ->
        Locks.Lock_core.lock lk;
        Cthread.work 5_000
        (* ... and returns without unlocking. *))
  in
  Cthread.join t

(* {2 Prediction-only bugs}

   The scenarios below are carefully timed so the schedule the
   simulator actually takes is clean — the observed-trace sanitizers
   (race detector, lock-order graph, lint) provably see nothing —
   while a legal reordering manifests the bug. Only the predictive
   pass (weak causality + witness replay) catches them. *)

let hidden_race () =
  (* Thread [late] writes [x] after its critical section on the same
     lock that [early] held while writing — so the observed run orders
     the writes through the lock's release→acquire happens-before edge
     and the race detector stays quiet. But [late]'s section never
     touches [x]: swapping the two sections is legal, and then the
     writes collide. *)
  let m = Locks.Lock.create ~name:"guard" ~home:0 Locks.Lock.Blocking in
  let x = Ops.alloc1 ~node:0 () in
  let early =
    Cthread.fork ~name:"early" ~proc:1 (fun () ->
        Locks.Lock_core.lock m;
        Ops.write x 1;
        Cthread.work 10_000;
        Locks.Lock_core.unlock m)
  in
  let late =
    Cthread.fork ~name:"late" ~proc:2 (fun () ->
        Cthread.work 300_000;
        Locks.Lock_core.lock m;
        Cthread.work 5_000;
        Locks.Lock_core.unlock m;
        Ops.write x 2)
  in
  Cthread.join_all [ early; late ]

let stale_hint_race () =
  (* The adaptive-object shape of the same bug: a reconfigurer updates
     a policy hint under the policy lock; the fast path reads the hint
     with no lock after an unrelated pass through the same lock. In
     the observed run the fast path trails far behind, so the lock's
     happens-before edge hides the unsynchronized read. *)
  let policy = Locks.Lock.create ~name:"policy-lock" ~home:0 Locks.Lock.Blocking in
  let hint = Ops.alloc1 ~node:0 () in
  let reconfigurer =
    Cthread.fork ~name:"reconfigurer" ~proc:1 (fun () ->
        Locks.Lock_core.lock policy;
        Ops.write hint 1;
        Cthread.work 12_000;
        Locks.Lock_core.unlock policy)
  in
  let fast_path =
    Cthread.fork ~name:"fast-path" ~proc:2 (fun () ->
        Cthread.work 320_000;
        Locks.Lock_core.lock policy;
        Cthread.work 4_000;
        Locks.Lock_core.unlock policy;
        ignore (Ops.read hint))
  in
  Cthread.join_all [ reconfigurer; fast_path ]

let latent_deadlock () =
  (* The classic a/b inversion, timed so thread [ab] is long done
     before [ba] takes its first lock: the observed run cannot
     deadlock, but no ordering forces that — the reordering where both
     hold their first lock is reachable and fatal. *)
  let la = Locks.Lock.create ~name:"lock-a" ~home:0 Locks.Lock.Blocking in
  let lb = Locks.Lock.create ~name:"lock-b" ~home:0 Locks.Lock.Blocking in
  let t1 =
    Cthread.fork ~name:"ab" ~proc:1 (fun () ->
        Locks.Lock_core.lock la;
        Cthread.work 5_000;
        Locks.Lock_core.lock lb;
        Cthread.work 2_000;
        Locks.Lock_core.unlock lb;
        Locks.Lock_core.unlock la)
  in
  let t2 =
    Cthread.fork ~name:"ba" ~proc:2 (fun () ->
        Cthread.work 400_000;
        Locks.Lock_core.lock lb;
        Cthread.work 5_000;
        Locks.Lock_core.lock la;
        Locks.Lock_core.unlock la;
        Locks.Lock_core.unlock lb)
  in
  Cthread.join_all [ t1; t2 ]

let lost_wakeup () =
  (* The waiter naps while holding the lock its waker needs. Observed,
     the waker slips through the lock long before the nap begins and
     its wakeup is banked as a token — but reordered, the waiter takes
     the lock first, the waker can never reach its wakeup call, and
     both sleep forever. *)
  let m = Locks.Lock.create ~name:"wake-lock" ~home:0 Locks.Lock.Blocking in
  let waiter =
    Cthread.fork ~name:"waiter" ~proc:1 (fun () ->
        Cthread.work 300_000;
        Locks.Lock_core.lock m;
        Cthread.block ();
        Locks.Lock_core.unlock m)
  in
  let _waker =
    Cthread.fork ~name:"waker" ~proc:2 (fun () ->
        Locks.Lock_core.lock m;
        Cthread.work 2_000;
        Locks.Lock_core.unlock m;
        Cthread.wakeup waiter)
  in
  Cthread.join waiter

let gated_order () =
  (* Negative control for the predictor: the a/b inversion again, but
     both nestings sit under a common gate lock, so no reordering can
     overlap them. The observed-trace lock-order graph still cries
     cycle (its classic false positive); the predictive pass must
     stay quiet. *)
  let gate = Locks.Lock.create ~name:"gate" ~home:0 Locks.Lock.Blocking in
  let la = Locks.Lock.create ~name:"gated-a" ~home:0 Locks.Lock.Blocking in
  let lb = Locks.Lock.create ~name:"gated-b" ~home:0 Locks.Lock.Blocking in
  let pair first second () =
    Locks.Lock_core.lock gate;
    Locks.Lock_core.lock first;
    Cthread.work 5_000;
    Locks.Lock_core.lock second;
    Cthread.work 5_000;
    Locks.Lock_core.unlock second;
    Locks.Lock_core.unlock first;
    Locks.Lock_core.unlock gate
  in
  let t1 = Cthread.fork ~name:"gated-ab" ~proc:1 (pair la lb) in
  let t2 = Cthread.fork ~name:"gated-ba" ~proc:2 (pair lb la) in
  Cthread.join_all [ t1; t2 ]

let sleep_with_spin_lock () =
  (* The holder of a spin-kind lock goes to sleep; a waiter on another
     processor burns cpu for the whole nap. *)
  let lk = Locks.Lock.create ~name:"hot-lock" ~home:0 Locks.Lock.Spin in
  let holder =
    Cthread.fork ~name:"napper" ~proc:1 (fun () ->
        Locks.Lock_core.lock lk;
        Cthread.block ();
        Locks.Lock_core.unlock lk)
  in
  let waiter =
    Cthread.fork ~name:"burner" ~proc:2 (fun () ->
        Cthread.work 20_000;
        Locks.Lock_core.lock lk;
        Locks.Lock_core.unlock lk)
  in
  (* Let the holder block (and the waiter spin) well before the
     wakeup arrives. *)
  Cthread.work 300_000;
  Cthread.wakeup holder;
  Cthread.join_all [ holder; waiter ]

(* A swap window driven while exactly one waiter is asleep: the
   seeded-buggy switch lock then commits a swap those sleepers never
   hear about. The swapper parks on [waiting_now] (bounded, so a
   chaos-mutilated run still terminates) and settles long enough for
   the registered waiter to actually reach its block point. *)
let swapped_with_sleeper ~name ~bug () =
  let module L = Locks.Lock_core in
  let lk = L.create ~name ~bug ~impl:(L.Swappable L.Blocking) ~home:0 () in
  let swapper =
    Cthread.fork ~name:"swapper" ~proc:1 (fun () ->
        L.lock lk;
        let rec settle n =
          if n > 0 && L.waiting_now lk < 1 then begin
            Cthread.delay 20_000;
            settle (n - 1)
          end
        in
        settle 200;
        Cthread.delay 150_000;
        ignore (L.swap_to lk L.Mcs);
        (* Long enough that a bug-granted sleeper (which pays the full
           wakeup overhead first) acquires while we still hold. *)
        Cthread.work 200_000;
        L.unlock lk)
  in
  let victim =
    Cthread.fork ~name:"victim" ~proc:2 (fun () ->
        L.lock lk;
        Cthread.work 20_000;
        L.unlock lk)
  in
  (swapper, victim)

let swap_lost_waiter () =
  let swapper, victim =
    swapped_with_sleeper ~name:"swl-lost-waiter"
      ~bug:Locks.Lock_core.Lost_sleeper_on_swap ()
  in
  Cthread.join swapper;
  (* The dropped sleeper is never woken: this join wedges the machine. *)
  Cthread.join victim

let swap_double_grant () =
  let swapper, victim =
    swapped_with_sleeper ~name:"swl-double-grant"
      ~bug:Locks.Lock_core.Double_grant_on_swap ()
  in
  (* The bogus grant stole ownership mid-window: the victim finishes,
     and the swapper's own unlock then crashes on the ownership check. *)
  Cthread.join victim;
  Cthread.join swapper
