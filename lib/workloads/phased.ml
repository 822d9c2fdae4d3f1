open Butterfly
open Cthreads

type phase = { active_threads : int; cs_ns : int; entries : int }

type spec = {
  processors : int;
  workers : int;
  phases : phase list;
  think_ns : int;
  lock_kind : Locks.Lock.kind;
  seed : int;
}

let default =
  {
    processors = 8;
    (* Three workers per processor: in the storm phase a spinning
       waiter starves the co-located lock holder, so no static policy
       is right in both phases. *)
    workers = 21;
    phases =
      [
        { active_threads = 1; cs_ns = 5_000; entries = 240 };
        { active_threads = 21; cs_ns = 700_000; entries = 16 };
        { active_threads = 1; cs_ns = 5_000; entries = 240 };
      ];
    think_ns = 15_000;
    lock_kind = Locks.Lock.adaptive_default;
    seed = 31;
  }

type result = {
  spec : spec;
  total_ns : int;
  adaptations : int;
  adaptation_log : (int * string) list;
  mean_wait_ns : float;
  blocks : int;
}

let config spec = { Config.default with Config.processors = spec.processors; seed = spec.seed }

(* The workload program itself; returns the shared lock. *)
let body spec () =
  let lk = Locks.Lock.create ~home:0 spec.lock_kind in
  let barrier = Barrier.create ~node:0 spec.workers in
  let worker idx () =
    List.iter
      (fun phase ->
        Barrier.await barrier;
        if idx < phase.active_threads then
          for _ = 1 to phase.entries do
            Locks.Lock_core.lock lk;
            Cthread.work phase.cs_ns;
            Locks.Lock_core.unlock lk;
            Cthread.work spec.think_ns
          done
        else
          (* Inactive this phase: local computation of comparable
             size — the work a spinning co-located waiter would
             starve. *)
          Cthread.work (phase.entries * (phase.cs_ns + spec.think_ns)))
      spec.phases
  in
  let threads =
    List.init spec.workers (fun i ->
        Cthread.fork
          ~proc:(1 + (i mod (spec.processors - 1)))
          ~name:(Printf.sprintf "worker%d" i) (worker i))
  in
  Cthread.join_all threads;
  lk

let scenario spec = (config spec, fun () -> ignore (body spec ()))

let run spec =
  let sim = Sched.create (config spec) in
  let lk = Sched.run sim (body spec) in
  let s = Locks.Lock_core.stats lk in
  let log, adaptations =
    match Locks.Lock_core.feedback lk with
    | Some loop -> Adaptive_core.Adaptive.(log loop, adaptations loop)
    | None -> ([], 0)
  in
  {
    spec;
    total_ns = Sched.final_time sim;
    adaptations;
    adaptation_log = log;
    mean_wait_ns = Locks.Lock_stats.mean_wait_ns s;
    blocks = Locks.Lock_stats.blocks s;
  }

let compare_kinds ?domains spec kinds =
  Engine.Runner.map ?domains
    (fun kind -> (kind, run { spec with lock_kind = kind }))
    kinds
