(* The implementation as an attribute of Lock_core. Mutual exclusion
   under every fixed implementation and under adaptation, the fail-safe
   swap protocol (FIFO-preserving migration, rollback on a killed
   participant, abandoned-swap recovery), timed waiters across swap
   windows, the guardrail fallback-failure and out-of-range regressions, the swap-window
   fault kinds end to end, and a digest pin on one scripted swap
   window. *)

open Butterfly
open Cthreads
module L = Locks.Lock_core
module Spec = Adaptive_core.Policy.Spec

let cfg = { Config.default with Config.processors = 8 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

(* -- mutual exclusion, every variant -- *)

let hammer ?(impl = L.Ladder) ?(nthreads = 6) ?(iters = 20) ?(cs_ns = 5_000) () =
  let counter = ref 0 and inside = ref 0 and overlap = ref 0 in
  let epoch = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = L.create ~home:0 ~impl () in
        let body () =
          for _ = 1 to iters do
            L.lock lk;
            incr inside;
            if !inside > !overlap then overlap := !inside;
            let v = !counter in
            Cthread.work cs_ns;
            counter := v + 1;
            decr inside;
            L.unlock lk
          done
        in
        let ts = List.init nthreads (fun i -> Cthread.fork ~proc:(1 + (i mod 7)) body) in
        Cthread.join_all ts;
        epoch := L.epoch lk)
  in
  (!counter, !overlap, !epoch)

let check_mutex name impl () =
  let total, overlap, _ = hammer ~impl () in
  Alcotest.(check int) (name ^ ": no lost updates") (6 * 20) total;
  Alcotest.(check int) (name ^ ": never two inside") 1 overlap

(* -- the ladder adapts: queue under pressure, blocking under long holds -- *)

let test_adapts_to_queue_under_contention () =
  let total, overlap, epoch = hammer ~nthreads:6 ~iters:30 ~cs_ns:20_000 () in
  Alcotest.(check int) "no lost updates" (6 * 30) total;
  Alcotest.(check int) "never two inside" 1 overlap;
  Alcotest.(check bool) "at least one committed swap" true (epoch >= 1)

let test_adapts_to_blocking_under_long_holds () =
  let blocks = ref 0 and epoch = ref 0 and saw_blocking = ref false in
  let counter = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = L.create ~home:0 ~impl:L.Ladder () in
        let body () =
          for _ = 1 to 12 do
            L.lock lk;
            if L.current_impl lk = L.Blocking then saw_blocking := true;
            let v = !counter in
            Cthread.work 600_000;
            counter := v + 1;
            L.unlock lk
          done
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(1 + i) body) in
        Cthread.join_all ts;
        blocks := Locks.Lock_stats.blocks (L.stats lk);
        epoch := L.epoch lk)
  in
  Alcotest.(check int) "no lost updates" (4 * 12) !counter;
  Alcotest.(check bool) "swapped at least once" true (!epoch >= 1);
  Alcotest.(check bool) "reached the blocking implementation" true !saw_blocking;
  Alcotest.(check bool) "waiters actually slept" true (!blocks > 0)

(* -- migration preserves queued FIFO order across a swap -- *)

let test_fifo_preserved_across_swap () =
  let order = ref [] and committed = ref false in
  let epoch = ref 0 and rollbacks = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = L.create ~home:0 ~impl:(L.Swappable L.Mcs) () in
        let holder =
          Cthread.fork ~proc:7 (fun () ->
              L.lock lk;
              (* Hold until all four waiters are registered, then swap
                 with the full queue present: they are kicked, re-arm,
                 and re-enter with their original tickets. *)
                while L.waiting_now lk < 4 do
                  Cthread.delay 10_000
                done;
              Cthread.delay 100_000;
              committed := L.swap_to lk L.Blocking;
              Cthread.work 50_000;
              L.unlock lk)
        in
        let waiters =
          List.init 4 (fun i ->
              Cthread.fork ~proc:(1 + i) (fun () ->
                  (* Staggered arrival: registration order is the
                     index order (fork order alone staggers starts;
                     the growing delay keeps the margin wide). *)
                  Cthread.delay ((i + 1) * 60_000);
                  L.lock lk;
                  order := i :: !order;
                  Cthread.work 10_000;
                  L.unlock lk))
        in
        Cthread.join holder;
        Cthread.join_all waiters;
        epoch := L.epoch lk;
        rollbacks := L.swap_rollbacks lk)
  in
  Alcotest.(check bool) "swap committed" true !committed;
  Alcotest.(check (list int)) "grants in ticket order" [ 0; 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "one committed swap" 1 !epoch;
  Alcotest.(check int) "no rollbacks" 0 !rollbacks

(* -- a waiter killed mid-drain must roll the swap back, not wedge it -- *)

let test_killed_waiter_rolls_swap_back () =
  let swap_result = ref true and survivor_done = ref false in
  let epoch = ref 0 and rollbacks = ref 0 and final_impl = ref L.Mcs in
  let go_swap = ref false in
  let sim = Sched.create cfg in
  Sched.run sim (fun () ->
      let lk = L.create ~home:0 ~impl:(L.Swappable L.Tas) () in
      let holder =
        Cthread.fork ~proc:7 (fun () ->
            L.lock lk;
            while not !go_swap do
              Cthread.delay 10_000
            done;
            (* The dead waiter can never acknowledge its kick: the
               drain must hit its deadline and roll back. *)
            swap_result := L.swap_to lk L.Mcs;
            L.unlock lk)
      in
      let victim =
        Cthread.fork ~proc:1 (fun () ->
            L.lock lk;
            L.unlock lk)
      in
      let survivor =
        Cthread.fork ~proc:2 (fun () ->
            L.lock lk;
            survivor_done := true;
            L.unlock lk)
      in
      (* Wait until both waiters are registered behind the holder,
         then crash the victim while it waits, then let the holder
         open its swap window against a queue with a corpse in it. *)
      while L.waiting_now lk < 2 do
        Cthread.delay 10_000
      done;
      Cthread.delay 100_000;
      ignore (Sched.kill_thread sim ~tid:(Cthread.id victim) ~at:(Cthread.now ()));
      go_swap := true;
      Cthread.join holder;
      Cthread.join victim;
      Cthread.join survivor;
      epoch := L.epoch lk;
      rollbacks := L.swap_rollbacks lk;
      final_impl := L.current_impl lk);
  Alcotest.(check bool) "swap reported rollback" false !swap_result;
  Alcotest.(check int) "rollback counted" 1 !rollbacks;
  Alcotest.(check int) "no committed swap" 0 !epoch;
  Alcotest.(check bool) "implementation unchanged" true (!final_impl = L.Tas);
  Alcotest.(check bool) "surviving waiter still acquired" true !survivor_done

(* -- a swapper killed mid-swap leaves a freeze the waiters age out -- *)

let test_abandoned_swap_recovery () =
  let timed_result = ref true in
  let recoveries = ref 0 and rollbacks = ref 0 and epoch = ref 0 and timeouts = ref 0 in
  let go_swap = ref false and go_late = ref false in
  let sim = Sched.create cfg in
  Sched.run sim (fun () ->
      let lk = L.create ~home:0 ~impl:(L.Swappable L.Tas) () in
      let holder =
        Cthread.fork ~proc:7 (fun () ->
            L.lock lk;
            while not !go_swap do
              Cthread.delay 10_000
            done;
            (* Never returns: killed mid-drain, freeze left set. *)
            ignore (L.swap_to lk L.Mcs);
            L.unlock lk)
      in
      let victim =
        Cthread.fork ~proc:1 (fun () ->
            L.lock lk;
            L.unlock lk)
      in
      let late =
        Cthread.fork ~proc:2 (fun () ->
            while not !go_late do
              Cthread.delay 10_000
            done;
            (* Arrives frozen; must clear the abandoned freeze, then
               (the word is stranded by the dead holder) expire. *)
            timed_result := L.lock_timeout lk ~deadline_ns:(Cthread.now () + 6_000_000))
      in
      (* The registered waiter dies first (so the drain can never
         finish), then the swapper dies inside its own window. *)
      while L.waiting_now lk < 1 do
        Cthread.delay 10_000
      done;
      Cthread.delay 100_000;
      ignore (Sched.kill_thread sim ~tid:(Cthread.id victim) ~at:(Cthread.now ()));
      go_swap := true;
      Cthread.delay 300_000;
      ignore (Sched.kill_thread sim ~tid:(Cthread.id holder) ~at:(Cthread.now ()));
      go_late := true;
      Cthread.join holder;
      Cthread.join victim;
      Cthread.join late;
      recoveries := L.abandoned_recoveries lk;
      rollbacks := L.swap_rollbacks lk;
      epoch := L.epoch lk;
      timeouts := Locks.Lock_stats.timeouts (L.stats lk));
  Alcotest.(check bool) "timed waiter expired" false !timed_result;
  Alcotest.(check int) "freeze recovered once" 1 !recoveries;
  Alcotest.(check int) "nobody committed" 0 !epoch;
  Alcotest.(check int) "nobody rolled back (the swapper died)" 0 !rollbacks;
  Alcotest.(check int) "timeout counted" 1 !timeouts

(* -- a swapper stalled past deadline+grace after its kick must not
   commit over the waiters' abandoned-swap recovery: by the time it
   resumes, every ack is in but the waiters have aged the freeze out
   and re-parked under the old implementation — flipping anyway would
   strand the sleeper behind a release that never wakes it -- *)

let swap_begin_label label =
  String.length label >= 10 && String.sub label 0 10 = "swap-begin"

(* A short swap window, so the steered tests reach its grace period. *)
let params =
  { L.default_params with L.swap_timeout_ns = 600_000; swap_grace_ns = 200_000 }

(* Steer dispatch: while [!hold] is set, starve thread [!swapper]
   whenever any other thread is dispatchable, running the earliest
   other candidate instead (several threads may share the starved
   window, and a spinner must not starve the guard holder in turn). *)
let starve_swapper sim ~swapper ~hold =
  Sched.set_dispatch_chooser sim
    (Some
       (fun choices ->
         if not !hold then -1
         else
           fst
             (Array.fold_left
                (fun (pick, key) c ->
                  if c.Sched.choice_tid <> !swapper && c.Sched.choice_key < key then
                    (c.Sched.choice_tid, c.Sched.choice_key)
                  else (pick, key))
                (-1, max_int) choices)))

let test_stalled_swapper_commit_revalidates () =
  let swap_result = ref true and victim_done = ref false in
  let epoch = ref (-1) and rollbacks = ref 0 and recoveries = ref 0 in
  let final_impl = ref L.Tas in
  let sim = Sched.create cfg in
  (* A penalty cannot build this interleaving: [penalize_thread] only
     inflates the thread's clock at its next dispatch — the dispatch
     itself still happens at the pre-penalty queue position, so a
     "stalled" swapper would sample [ack] before the victim's kicked
     wakeup ever runs. Descheduling is a dispatch-ORDER property, so
     steer dispatch directly: once the kick is over, the chooser
     starves the swapper whenever any other thread is runnable. The
     kicked victim then acks, polls the freeze out to deadline+grace,
     recovers it, and re-parks — all strictly inside the swapper's
     starved window — so the swapper resumes to a fully-acked drain
     whose freeze is already gone. *)
  let swapper_tid = ref (-1) in
  let hold = ref false in
  Sched.add_annot_hook sim (fun a ->
      match a.Sched.annotation with
      | Ops.A_adaptation { kind = "lock-impl"; label; _ } when swap_begin_label label ->
        swapper_tid := a.Sched.annot_tid;
        (* The kick's wakeup and guard traffic cost ~200 µs; the kicked
           victim redispatches ~310 µs in. Start starving between the
           two, while the swapper is alone in its drain loop. *)
        Sched.add_timer sim ~at:(a.Sched.annot_time + 250_000) (fun () -> hold := true)
      | _ -> ());
  starve_swapper sim ~swapper:swapper_tid ~hold;
  Sched.run sim (fun () ->
      let lk = L.create ~params ~home:0 ~impl:(L.Swappable L.Blocking) () in
      let swapper =
        Cthread.fork ~name:"swapper" ~proc:7 (fun () ->
            L.lock lk;
            while L.waiting_now lk < 1 do
              Cthread.delay 10_000
            done;
            (* Long enough for the registered victim to actually park. *)
            Cthread.delay 150_000;
            swap_result := L.swap_to lk L.Tas;
            L.unlock lk)
      in
      let victim =
        Cthread.fork ~name:"victim" ~proc:1 (fun () ->
            L.lock lk;
            victim_done := true;
            L.unlock lk)
      in
      Cthread.join swapper;
      Cthread.join victim;
      epoch := L.epoch lk;
      rollbacks := L.swap_rollbacks lk;
      recoveries := L.abandoned_recoveries lk;
      final_impl := L.current_impl lk);
  Alcotest.(check bool) "swap reported rollback" false !swap_result;
  Alcotest.(check int) "no committed swap" 0 !epoch;
  Alcotest.(check bool) "implementation unchanged" true (!final_impl = L.Blocking);
  Alcotest.(check int) "rollback counted" 1 !rollbacks;
  Alcotest.(check int) "freeze recovered by the waiter" 1 !recoveries;
  Alcotest.(check bool) "re-parked victim still acquired" true !victim_done

(* -- a timed waiter whose deadline fires INSIDE the grace window of an
   abandoned swap must withdraw without recovering the freeze (now is
   not yet past deadline+grace, so the swapper may still be alive), and
   the recovery then falls to the next arrival. The interleaving is
   steered like the stalled-swapper test: starve the swapper from just
   after its kick, so the kicked timed waiter acks, polls the frozen
   ctl, and expires strictly inside the grace window; a rescuer thread
   then ages the freeze out, and the released swapper finds its freeze
   stolen and rolls back. -- *)

let test_timed_expiry_races_abandoned_recovery () =
  let swap_result = ref true and timed_result = ref true in
  let rescuer_done = ref false in
  let epoch = ref (-1) and rollbacks = ref 0 and recoveries = ref 0 in
  let timeouts = ref 0 and final_impl = ref L.Tas in
  let freeze_at = ref (-1) and timed_out_at = ref (-1) in
  let probe_log = ref [] in
  let sim = Sched.create cfg in
  let swapper_tid = ref (-1) in
  let hold = ref false in
  Sched.add_annot_hook sim (fun a ->
      match a.Sched.annotation with
      | Ops.A_adaptation { kind = "lock-impl"; label; _ } when swap_begin_label label ->
        swapper_tid := a.Sched.annot_tid;
        freeze_at := a.Sched.annot_time
      | Ops.A_adaptation { kind = "lock-impl"; label = "swap-abandoned-recovery"; _ } ->
        (* The rescuer has aged the freeze out: let the swapper resume
           and discover the theft. *)
        hold := false
      | _ -> ());
  starve_swapper sim ~swapper:swapper_tid ~hold;
  let go_rescue = ref false in
  Sched.run sim (fun () ->
      let lk = L.create ~params ~home:0 ~impl:(L.Swappable L.Blocking) () in
      (* The probe doubles as the steering trigger: the timed waiter's
         kick acknowledgment is the exact point after which the
         swapper must not run again until the freeze is recovered —
         the emission is synchronous, so the hold is in place before
         the swapper's next drain sample can be dispatched. *)
      L.set_transition_probe lk
        (Some
           (fun tid label ->
             probe_log := (tid, label) :: !probe_log;
             if label = "ack" then hold := true));
      let swapper =
        Cthread.fork ~name:"swapper" ~proc:7 (fun () ->
            L.lock lk;
            while L.waiting_now lk < 1 do
              Cthread.delay 10_000
            done;
            Cthread.delay 150_000;
            swap_result := L.swap_to lk L.Tas;
            L.unlock lk)
      in
      let timed =
        Cthread.fork ~name:"timed" ~proc:1 (fun () ->
            (* The deadline lands between the swapper's drain deadline
               and deadline+grace: the waiter is kicked, acks, and then
               expires while the abandoned freeze is still inside its
               grace period. *)
            timed_result :=
              L.lock_timeout lk ~deadline_ns:(Cthread.now () + 880_000);
            timed_out_at := Cthread.now ())
      in
      let rescuer =
        Cthread.fork ~name:"rescuer" ~proc:2 (fun () ->
            while not !go_rescue do
              Cthread.delay 10_000
            done;
            L.lock lk;
            rescuer_done := true;
            L.unlock lk)
      in
      Cthread.join timed;
      go_rescue := true;
      Cthread.join swapper;
      Cthread.join rescuer;
      epoch := L.epoch lk;
      rollbacks := L.swap_rollbacks lk;
      recoveries := L.abandoned_recoveries lk;
      timeouts := Locks.Lock_stats.timeouts (L.stats lk);
      final_impl := L.current_impl lk);
  Alcotest.(check bool) "timed waiter expired" false !timed_result;
  (* The expiry really fell inside the grace window: past the drain
     deadline, short of deadline+grace. *)
  Alcotest.(check bool) "timeout after the drain deadline" true
    (!timed_out_at > !freeze_at + params.L.swap_timeout_ns);
  Alcotest.(check bool) "timeout inside the grace window" true
    (!timed_out_at < !freeze_at + params.L.swap_timeout_ns + params.L.swap_grace_ns);
  (* The timed waiter withdrew without recovering; the rescuer did. *)
  let events = List.rev !probe_log in
  let index l = Option.get (List.find_index (fun (_, x) -> x = l) events) in
  Alcotest.(check bool) "timeout precedes recovery" true
    (index "timeout" < index "recover");
  Alcotest.(check bool) "recovery not by the timed waiter" true
    (fst (List.nth events (index "recover")) <> fst (List.nth events (index "timeout")));
  Alcotest.(check int) "freeze recovered once" 1 !recoveries;
  Alcotest.(check int) "timeout counted" 1 !timeouts;
  Alcotest.(check bool) "swap reported rollback" false !swap_result;
  Alcotest.(check int) "no committed swap" 0 !epoch;
  Alcotest.(check int) "rollback counted" 1 !rollbacks;
  Alcotest.(check bool) "implementation unchanged" true (!final_impl = L.Blocking);
  Alcotest.(check bool) "rescuer still acquired" true !rescuer_done

(* -- a pinned variant must stay pinned: the public swap API refuses -- *)

let test_pinned_lock_rejects_swap () =
  (* A fixed variant, and the centralized word, whose implementation
     is never mutable. *)
  let check (name, impl) =
    let raised = ref 0 and unchanged = ref false in
    let (_ : Sched.t) =
      run (fun () ->
          let lk = L.create ~home:0 ~impl:(impl ()) () in
          let before = L.current_impl lk in
          L.lock lk;
          (try ignore (L.swap_to lk L.Mcs) with L.Misuse _ -> incr raised);
          (try ignore (L.swap_to lk L.Blocking) with L.Misuse _ -> incr raised);
          L.unlock lk;
          unchanged := L.current_impl lk = before)
    in
    Alcotest.(check int) (name ^ ": both swaps refused") 2 !raised;
    Alcotest.(check bool) (name ^ ": implementation unchanged") true !unchanged
  in
  List.iter check
    [
      ("fixed tas", fun () -> L.Fixed L.Tas);
      ( "centralized",
        fun () -> L.Central (Locks.Waiting.pure_spin (), Locks.Lock_costs.spin) );
    ]

(* -- create refuses an argument its implementation would ignore:
   the swap parameters and seeded bugs belong to the registered
   implementations, the sleeper order and advice to the centralized
   word -- *)

let test_create_rejects_ignored_arguments () =
  let central () = L.Central (Locks.Waiting.pure_spin (), Locks.Lock_costs.spin)
  and adaptive () = L.Adaptive Locks.Spin_budget.default_params
  and fixed () = L.Fixed L.Tas
  and swappable () = L.Swappable L.Blocking
  and ladder () = L.Ladder in
  let params impl () = L.create ~params:L.default_params ~home:0 ~impl:(impl ()) ()
  and bug impl () = L.create ~bug:L.Lost_sleeper_on_swap ~home:0 ~impl:(impl ()) ()
  and sched impl () = L.create ~sched:Locks.Lock_sched.Priority ~home:0 ~impl:(impl ()) ()
  and advisory impl () = L.create ~advisory:true ~home:0 ~impl:(impl ()) () in
  let cases =
    [ ("central ?params", params central); ("central ?bug", bug central);
      ("adaptive ?params", params adaptive); ("adaptive ?bug", bug adaptive);
      ("fixed ?sched", sched fixed); ("fixed ?advisory", advisory fixed);
      ("swappable ?sched", sched swappable); ("swappable ?advisory", advisory swappable);
      ("ladder ?sched", sched ladder); ("ladder ?advisory", advisory ladder) ]
  in
  let (_ : Sched.t) =
    run (fun () ->
        List.iter
          (fun (name, create) ->
            match create () with
            | _ -> Alcotest.failf "%s: accepted" name
            | exception Invalid_argument _ -> ())
          cases;
        (* Each argument is still accepted where it applies. *)
        List.iter
          (fun create -> ignore (create ()))
          [ params ladder; bug swappable; sched central; advisory adaptive ])
  in
  ()

(* -- timed waiters: expiry while queued, grant within deadline -- *)

let test_lock_timeout_semantics () =
  let expired = ref true and granted = ref false and waiting_after = ref (-1) in
  let timeouts = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = L.create ~home:0 ~impl:(L.Fixed L.Tas) () in
        let holder =
          Cthread.fork ~proc:7 (fun () ->
              L.lock lk;
              Cthread.work 600_000;
              L.unlock lk)
        in
        let impatient =
          Cthread.fork ~proc:1 (fun () ->
              Cthread.delay 50_000;
              expired := L.lock_timeout lk ~deadline_ns:200_000)
        in
        Cthread.join impatient;
        waiting_after := L.waiting_now lk;
        let patient =
          Cthread.fork ~proc:2 (fun () ->
              granted := L.lock_timeout lk ~deadline_ns:5_000_000;
              if !granted then L.unlock lk)
        in
        Cthread.join holder;
        Cthread.join patient;
        timeouts := Locks.Lock_stats.timeouts (L.stats lk))
  in
  Alcotest.(check bool) "impatient waiter expired" false !expired;
  Alcotest.(check int) "registration withdrawn on expiry" 0 !waiting_after;
  Alcotest.(check bool) "patient waiter granted" true !granted;
  Alcotest.(check int) "exactly one timeout" 1 !timeouts

(* -- determinism and the swap-free A/B guarantee -- *)

let adaptive_run () =
  let counter = ref 0 in
  let epoch = ref 0 in
  let sim =
    run (fun () ->
        let lk = L.create ~home:0 ~impl:L.Ladder () in
        let body () =
          for _ = 1 to 10 do
            L.lock lk;
            incr counter;
            Cthread.work 20_000;
            L.unlock lk
          done
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(1 + i) body) in
        Cthread.join_all ts;
        epoch := L.epoch lk)
  in
  (Sched.final_time sim, !epoch, !counter)

let test_deterministic_replay () =
  let a = adaptive_run () and b = adaptive_run () in
  Alcotest.(check bool) "identical runs, identical clocks" true (a = b)

let test_swap_free_run_stays_swap_free () =
  (* An uncontended workload never crosses a ladder threshold: the
     adaptive lock performs zero swaps and zero adaptations — the
     A/B guarantee that compiling the swap machinery in changes
     nothing until a swap actually fires. *)
  let epoch = ref (-1) and adaptations = ref (-1) in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = L.create ~home:0 ~impl:L.Ladder () in
        for _ = 1 to 8 do
          L.lock lk;
          Cthread.work 10_000;
          L.unlock lk
        done;
        epoch := L.epoch lk;
        adaptations :=
          List.fold_left
            (fun n m -> n + m.Adaptive_core.Registry.stats.adaptations)
            0 (Adaptive_core.Registry.snapshot ()))
  in
  Alcotest.(check int) "no committed swap" 0 !epoch;
  Alcotest.(check int) "no adaptation" 0 !adaptations

(* -- the declarative ladder is well formed and guard-consistent -- *)

let test_policy_spec_validates () =
  let spec = L.impl_ladder_spec () in
  Alcotest.(check (list string)) "spec validates" [] (Spec.validate spec);
  (match spec.Spec.s_guard with
  | None -> Alcotest.fail "shipped ladder must carry a guardrail"
  | Some g ->
    Alcotest.(check bool) "guard fallback is a declared implementation" true
      (List.exists
         (fun c -> c.Spec.c_value = g.Spec.g_fallback)
         spec.Spec.s_configs);
    Alcotest.(check bool) "clamp covers the whole ladder" true
      (List.for_all
         (fun c ->
           c.Spec.c_value >= g.Spec.g_clamp_lo)
         spec.Spec.s_configs));
  Alcotest.(check bool) "every swap transition has hysteresis" true
    (List.for_all (fun tr -> tr.Spec.t_repeats >= 2) spec.Spec.s_transitions)

(* -- guardrail regression: a failed fallback apply must retry, not
   park the guard in cooldown behind a fresh full streak -- *)

let guard_fixture_spec =
  {
    Spec.s_name = "fixture";
    s_kind = "test";
    s_attribute = "fixture.x";
    s_metric = "m";
    s_monotone = Spec.Unordered;
    s_configs = [ { Spec.c_name = "a"; c_value = 0 }; { Spec.c_name = "b"; c_value = 1 } ];
    s_initial = 0;
    s_transitions =
      [
        {
          Spec.t_from = 0;
          t_cond = Spec.cond 5 ~hi:10;
          t_target = 1;
          t_label = "up";
          t_repeats = 1;
          t_cost = Adaptive_core.Cost.make ();
        };
      ];
    s_guard =
      Some
        {
          Spec.g_clamp_lo = 0;
          (* Clamped pathological samples fall below the "up" band, so
             cooldown samples visibly stay. *)
          g_clamp_hi = 4;
          g_limit = 2;
          g_cooldown = 8;
          g_fallback = 0;
          g_fallback_label = "fb";
          g_fallback_cost = Adaptive_core.Cost.make ();
        };
  }

let test_guard_retries_after_failed_fallback () =
  let current = ref 1 and fallback_ok = ref false in
  Spec_loop.in_sim (fun () ->
      let loop =
        Spec_loop.create guard_fixture_spec ~cur:current ~accept:(fun v ->
            v <> 0 || !fallback_ok)
      in
      let feed = Spec_loop.step loop in
      (* Two pathological samples reach the streak limit: the guard
         orders the fallback to "a", whose apply fails (a rolled-back
         swap). *)
      Alcotest.(check string) "first pathological sample" "none" (feed 50);
      Alcotest.(check string) "streak fires the fallback" "a!" (feed 50);
      (* Regression: before the fix the failed apply left the guard in
         cooldown with its streak spent — eight samples of silence, then
         a fresh full streak. The very next pathological sample must
         retry. *)
      Alcotest.(check string) "failed fallback retries immediately" "a!" (feed 50);
      fallback_ok := true;
      Alcotest.(check string) "retry succeeds" "fb" (feed 50);
      Alcotest.(check int) "fallback landed" 0 !current;
      (* A successful fallback does engage the cooldown. *)
      Alcotest.(check string) "cooldown after success" "none" (feed 50))

(* -- regression: an out-of-range score feeds only the guard. Before
   the step fix a clamped sample (500 -> 199) still reached the
   long-hold band, so the ladder swapped tas->blocking two samples
   after every fallback and fought its own guard forever. -- *)

let test_out_of_range_score_does_not_swap () =
  let spec = L.impl_ladder_spec () in
  let id i =
    (List.find (fun c -> c.Spec.c_name = L.impl_label i) spec.Spec.s_configs).Spec.c_value
  in
  let current = ref (id L.Blocking) in
  let feed = Spec_loop.steps spec ~cur:current in
  let decisions = List.init 40 (fun _ -> feed 500) in
  Alcotest.(check (list string)) "streak of four falls back" [ "none"; "none"; "none" ]
    (List.filteri (fun i _ -> i < 3) decisions);
  Alcotest.(check string) "fallback at sample 4" "impl-guardrail-fallback"
    (List.nth decisions 3);
  Alcotest.(check (list string)) "no swap while the score stays out of range" []
    (List.filter (String.starts_with ~prefix:"swap:") decisions);
  Alcotest.(check int) "the fallback stays where it landed" (id L.Tas) !current;
  (* back in range, the ladder adapts as before: two long-hold samples
     swap to blocking, two quiet ones swap back *)
  Alcotest.(check string) "long hold 1" "none" (feed 150);
  Alcotest.(check string) "long hold 2 swaps" "swap:tas->blocking" (feed 150);
  Alcotest.(check string) "quiet 1" "none" (feed 0);
  Alcotest.(check string) "quiet 2 swaps back" "swap:blocking->tas" (feed 0)

(* -- swap-window fault kinds: plan round trip, seeded gating, injector -- *)

let test_fault_plan_swap_kinds_roundtrip () =
  let s = "kill-in-swap@50:obj=*;swap-stall@100:obj=swl,ns=500" in
  let plan = Faults.Fault_plan.of_string s in
  Alcotest.(check string) "round trip" s (Faults.Fault_plan.to_string plan);
  Alcotest.(check int) "two faults" 2 (List.length plan)

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_fault_plan_swap_gating () =
  let gen swap_faults seed =
    Faults.Fault_plan.to_string
      (Faults.Fault_plan.generate ~swap_faults ~seed ~cfg ~horizon_ns:3_000_000 ())
  in
  (* Deterministic either way... *)
  Alcotest.(check string) "deterministic with swap faults" (gen true 7) (gen true 7);
  (* ...and the swap kinds are drawn only when asked for. *)
  for seed = 0 to 49 do
    let p = gen false seed in
    if contains_sub p "swap-stall" || contains_sub p "kill-in-swap" then
      Alcotest.failf "seed %d drew a swap fault without opting in: %s" seed p
  done;
  let drew_some =
    List.exists
      (fun seed ->
        let p = gen true seed in
        contains_sub p "swap-stall" || contains_sub p "kill-in-swap")
      (List.init 50 (fun i -> i))
  in
  Alcotest.(check bool) "opting in draws swap faults" true drew_some

let test_injector_kill_in_swap () =
  let sim = Sched.create cfg in
  let plan = Faults.Fault_plan.of_string "kill-in-swap@0:obj=*" in
  let inj = Faults.Injector.install sim ~plan in
  let timed_result = ref true and recoveries = ref 0 and epoch = ref (-1) in
  Sched.run sim (fun () ->
      let lk = L.create ~home:0 ~impl:(L.Swappable L.Tas) () in
      let holder =
        Cthread.fork ~proc:1 (fun () ->
            L.lock lk;
            Cthread.work 100_000;
            (* The injector kills us at the swap-begin annotation:
               the freeze is already set, the word stays held. *)
            ignore (L.swap_to lk L.Mcs);
            L.unlock lk)
      in
      let late =
        Cthread.fork ~proc:2 (fun () ->
            Cthread.delay 200_000;
            timed_result := L.lock_timeout lk ~deadline_ns:8_000_000)
      in
      Cthread.join holder;
      Cthread.join late;
      recoveries := L.abandoned_recoveries lk;
      epoch := L.epoch lk);
  let fired =
    List.exists
      (fun line -> contains_sub line "kill-in-swap" && contains_sub line " kill tid=")
      (Faults.Injector.applied inj)
  in
  Alcotest.(check bool) "kill-in-swap fired" true fired;
  Alcotest.(check int) "swap never committed" 0 !epoch;
  Alcotest.(check int) "abandoned freeze recovered" 1 !recoveries;
  Alcotest.(check bool) "stranded lock expires the timed waiter" false !timed_result

(* -- pin: one scripted swap window, byte for byte. The window parks
   two sleepers and a timed waiter behind a swapper that is starved
   from the timed waiter's kick acknowledgment until a sleeper ages
   the freeze out, so the swap rolls back; the first sleeper granted
   afterwards swaps again, over the other sleeper, and commits. -- *)

let scripted_swap () =
  let log = Buffer.create 1024 in
  let sim = Sched.create cfg in
  let swapper_tid = ref (-1) and timed_tid = ref (-1) in
  let hold = ref false and steered = ref false in
  Sched.add_annot_hook sim (fun a ->
      match a.Sched.annotation with
      | Ops.A_adaptation { kind = "lock-impl"; label; _ } ->
        if swap_begin_label label && not !steered then swapper_tid := a.Sched.annot_tid;
        if label = "swap-abandoned-recovery" then hold := false
      | _ -> ());
  starve_swapper sim ~swapper:swapper_tid ~hold;
  let results = Buffer.create 256 in
  Sched.run sim (fun () ->
      let lk =
        L.create ~name:"switch-lock" ~params ~home:0 ~impl:(L.Swappable L.Blocking) ()
      in
      L.set_transition_probe lk
        (Some
           (fun tid label ->
             Printf.bprintf log "%d %s\n" tid label;
             if label = "ack" && tid = !timed_tid && not !steered then begin
               steered := true;
               hold := true
             end));
      let swapped = ref false in
      let swapper =
        Cthread.fork ~name:"swapper" ~proc:7 (fun () ->
            L.lock lk;
            while L.waiting_now lk < 3 do
              Cthread.delay 10_000
            done;
            Cthread.delay 150_000;
            Printf.bprintf results "first swap %b\n" (L.swap_to lk L.Tas);
            L.unlock lk)
      in
      let sleeper i =
        Cthread.fork ~name:(Printf.sprintf "sleeper%d" i) ~proc:(1 + i) (fun () ->
            L.lock lk;
            if not !swapped && L.waiting_now lk >= 1 then begin
              swapped := true;
              Cthread.delay 150_000;
              Printf.bprintf results "second swap %b\n" (L.swap_to lk L.Mcs)
            end;
            Cthread.work 20_000;
            L.unlock lk)
      in
      let sleepers = List.init 2 sleeper in
      let timed =
        Cthread.fork ~name:"timed" ~proc:3 (fun () ->
            Printf.bprintf results "timed %b\n"
              (L.lock_timeout lk ~deadline_ns:(Cthread.now () + 880_000)))
      in
      timed_tid := Cthread.id timed;
      Cthread.join swapper;
      Cthread.join_all sleepers;
      Cthread.join timed;
      let st = L.stats lk in
      Buffer.add_string results
        (Format.asprintf "%a\nepoch %d rollbacks %d recoveries %d timeouts %d impl %s\n"
           Locks.Lock_stats.pp st (L.epoch lk) (L.swap_rollbacks lk)
           (L.abandoned_recoveries lk) (Locks.Lock_stats.timeouts st)
           (L.impl_label (L.current_impl lk))));
  Printf.bprintf results "final %d\n" (Sched.final_time sim);
  (Buffer.contents log, Buffer.contents results)

let test_scripted_swap_pinned () =
  let log, results = scripted_swap () in
  let has sub = contains_sub results sub in
  Alcotest.(check bool) "sleepers parked" true
    (contains_sub log "2 park" && contains_sub log "3 park");
  Alcotest.(check bool) "timed waiter expired" true (has "timed false");
  Alcotest.(check bool) "first swap rolled back, second committed" true
    (has "first swap false" && has "second swap true");
  Alcotest.(check bool) "one rollback, one recovery" true
    (has "epoch 1 rollbacks 1 recoveries 1 timeouts 1");
  Alcotest.(check string) "probe log md5" "f4ddb9a1f27582860e1184406a87c59d"
    (Digest.to_hex (Digest.string log));
  Alcotest.(check string) "results md5" "3bc8692601f196c910fa8cb604b7b86d"
    (Digest.to_hex (Digest.string results))

let suite =
  [
    Alcotest.test_case "mutex: fixed tas" `Quick (check_mutex "tas" (L.Fixed L.Tas));
    Alcotest.test_case "mutex: fixed mcs" `Quick (check_mutex "mcs" (L.Fixed L.Mcs));
    Alcotest.test_case "mutex: fixed blocking" `Quick
      (check_mutex "blocking" (L.Fixed L.Blocking));
    Alcotest.test_case "mutex: adaptive" `Quick (check_mutex "adaptive" L.Ladder);
    Alcotest.test_case "adapts to the queue under contention" `Quick
      test_adapts_to_queue_under_contention;
    Alcotest.test_case "adapts to blocking under long holds" `Quick
      test_adapts_to_blocking_under_long_holds;
    Alcotest.test_case "FIFO preserved across a swap" `Quick test_fifo_preserved_across_swap;
    Alcotest.test_case "killed waiter rolls the swap back" `Quick
      test_killed_waiter_rolls_swap_back;
    Alcotest.test_case "abandoned swap is recovered by waiters" `Quick
      test_abandoned_swap_recovery;
    Alcotest.test_case "stalled swapper re-validates the freeze at commit" `Quick
      test_stalled_swapper_commit_revalidates;
    Alcotest.test_case "timed expiry inside the grace window of an abandoned swap"
      `Quick test_timed_expiry_races_abandoned_recovery;
    Alcotest.test_case "pinned lock refuses implementation swaps" `Quick
      test_pinned_lock_rejects_swap;
    Alcotest.test_case "create rejects an argument its implementation ignores" `Quick
      test_create_rejects_ignored_arguments;
    Alcotest.test_case "lock_timeout across contention" `Quick test_lock_timeout_semantics;
    Alcotest.test_case "identical runs are bit-identical" `Quick test_deterministic_replay;
    Alcotest.test_case "swap-free run performs zero adaptations" `Quick
      test_swap_free_run_stays_swap_free;
    Alcotest.test_case "implementation ladder spec validates" `Quick
      test_policy_spec_validates;
    Alcotest.test_case "guard retries after a failed fallback" `Quick
      test_guard_retries_after_failed_fallback;
    Alcotest.test_case "out-of-range score does not swap" `Quick
      test_out_of_range_score_does_not_swap;
    Alcotest.test_case "fault plan: swap kinds round-trip" `Quick
      test_fault_plan_swap_kinds_roundtrip;
    Alcotest.test_case "fault plan: swap kinds are opt-in" `Quick
      test_fault_plan_swap_gating;
    Alcotest.test_case "injector: kill-in-swap strands the freeze" `Quick
      test_injector_kill_in_swap;
    Alcotest.test_case "scripted swap window pinned" `Quick test_scripted_swap_pinned;
  ]
