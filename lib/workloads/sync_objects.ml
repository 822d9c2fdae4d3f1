open Butterfly
open Cthreads

type spec = { processors : int; workers : int; rounds : int; items_each : int; seed : int }

let default = { processors = 8; workers = 6; rounds = 12; items_each = 4; seed = 47 }

type result = {
  spec : spec;
  total_ns : int;
  snapshot : Adaptive_core.Registry.metrics list;
  adaptations : int;
}

(* One simulated program that exercises every adaptive-object family in
   the package — lock, rw-lock, barrier, condition, semaphore — so a
   single registry snapshot shows the whole telemetry spine at work.

   Stage 1 (rounds): balanced compute, then a skewed straggler, between
   barrier arrivals (drives the barrier's spin-budget policy both
   ways); inside each round a contended adaptive-lock critical section,
   a read-mostly rw-lock phase with periodic writes, and a
   semaphore-limited section. Stage 2: a producer/consumer hand-off
   through the adaptive condition, with every consumer waiting at once
   (drives the broadcast-hint escalation). Returns the registry's
   snapshot. *)
let body spec () =
  Adaptive_core.Registry.reset ();
  let w = spec.workers in
  let lock = Locks.Lock.create ~name:"counter-lock" ~home:0 Locks.Lock.adaptive_default in
  let rw = Locks.Rw_lock.create ~name:"table-rw" ~adaptive:true ~home:0 () in
  let barrier = Adaptive_barrier.create ~node:0 ~name:"round-barrier" w in
  let mu = Spin.create ~node:0 () in
  let cond = Adaptive_condition.create ~node:0 ~name:"queue-nonempty" () in
  let sem = Adaptive_semaphore.create ~node:0 ~name:"io-slots" 2 in
  let available = ref 0 in
  let worker i () =
    (* Stage 1: barrier rounds. The second half gives worker 0 a
       2.4 ms straggle — spread well past the barrier's block_if_over
       threshold, so the arrival spin budget ramps up through the
       balanced rounds and back down through the skewed ones. *)
    for r = 1 to spec.rounds do
      let skew = if r > spec.rounds / 2 && i = 0 then 2_400_000 else 0 in
      Cthread.work (4_000 + skew);
      Adaptive_barrier.await barrier;
      Locks.Lock_core.lock lock;
      Cthread.work 3_000;
      Locks.Lock_core.unlock lock;
      Adaptive_semaphore.acquire sem;
      Cthread.work 2_500;
      Adaptive_semaphore.release sem;
      Cthread.work 1_000
    done;
    (* Stage 2: worker 0 produces, everyone else consumes. The
       producer's warm-up outlasts the consumers' resume from the last
       barrier, so the first signals find the whole crowd waiting and
       the wake strategy escalates to broadcast; once the item pool
       runs ahead of the consumers it de-escalates again. *)
    if i = 0 then begin
      Cthread.work 1_000_000;
      for _ = 1 to (w - 1) * spec.items_each do
        Cthread.work 1_500;
        Spin.lock mu;
        incr available;
        Adaptive_condition.signal cond;
        Spin.unlock mu
      done
    end
    else
      for _ = 1 to spec.items_each do
        Spin.lock mu;
        while !available = 0 do
          Adaptive_condition.wait cond mu
        done;
        decr available;
        Spin.unlock mu;
        Cthread.work 2_000
      done;
    (* Stage 3: a read-mostly table with a writer burst in the middle
       rounds — waiting writers flip the rw preference to Writer_pref,
       and the writer-free tail flips it back. *)
    for r = 1 to 8 do
      if i < 2 && r >= 3 && r <= 6 then
        Locks.Rw_lock.with_write rw (fun () -> Cthread.work 5_000)
      else Locks.Rw_lock.with_read rw (fun () -> Cthread.work 40_000);
      Cthread.work 2_000
    done
  in
  let threads =
    List.init w (fun i ->
        Cthread.fork
          ~proc:(1 + (i mod (spec.processors - 1)))
          ~name:(Printf.sprintf "sync%d" i) (worker i))
  in
  Cthread.join_all threads;
  Adaptive_core.Registry.snapshot ()

let config spec = { Config.default with Config.processors = spec.processors; seed = spec.seed }
let scenario spec = (config spec, fun () -> ignore (body spec ()))

let run spec =
  let sim = Sched.create (config spec) in
  let snapshot = Sched.run sim (body spec) in
  let adaptations =
    List.fold_left
      (fun n (m : Adaptive_core.Registry.metrics) ->
        n + m.Adaptive_core.Registry.stats.Adaptive_core.Registry.adaptations)
      0 snapshot
  in
  { spec; total_ns = Sched.final_time sim; snapshot; adaptations }
