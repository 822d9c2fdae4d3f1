open Butterfly
open Cthreads

type spec = {
  processors : int;
  threads_per_proc : int;
  iterations : int;
  cs_ns : int;
  think_ns : int;
  lock_kind : Locks.Lock.kind;
  seed : int;
}

let default =
  {
    processors = 8;
    threads_per_proc = 3;
    iterations = 40;
    cs_ns = 20_000;
    think_ns = 30_000;
    lock_kind = Locks.Lock.Spin;
    seed = 11;
  }

type result = {
  spec : spec;
  total_ns : int;
  mean_wait_ns : float;
  contended : int;
  blocks : int;
  spin_probes : int;
  adaptations : int;
}

(* The machine a spec runs on: [base] with the spec's processors and
   seed. *)
let config ?(base = Config.default) spec =
  { base with Config.processors = spec.processors; seed = spec.seed }

(* The workload program itself; returns the shared lock. *)
let body spec () =
  let lk = Locks.Lock.create ~home:0 spec.lock_kind in
  let worker tid_seed () =
    (* Jitter arrival so threads do not phase-lock artificially. *)
    Cthread.work (100 * (tid_seed mod 7));
    for _ = 1 to spec.iterations do
      Locks.Lock_core.lock lk;
      Cthread.work spec.cs_ns;
      Locks.Lock_core.unlock lk;
      Cthread.work spec.think_ns
    done
  in
  let threads =
    List.concat_map
      (fun proc ->
        List.init spec.threads_per_proc (fun i ->
            Cthread.fork ~proc
              ~name:(Printf.sprintf "w%d.%d" proc i)
              (worker ((proc * 31) + i))))
      (List.init spec.processors (fun p -> p))
  in
  Cthread.join_all threads;
  lk

let scenario spec = (config spec, fun () -> ignore (body spec ()))

let run ?machine spec =
  let sim = Sched.create (config ?base:machine spec) in
  let s = Locks.Lock_core.stats (Sched.run sim (body spec)) in
  {
    spec;
    total_ns = Sched.final_time sim;
    mean_wait_ns = Locks.Lock_stats.mean_wait_ns s;
    contended = Locks.Lock_stats.contended s;
    blocks = Locks.Lock_stats.blocks s;
    spin_probes = Locks.Lock_stats.spin_probes s;
    adaptations = Locks.Lock_stats.reconfigurations s;
  }

let sweep ?domains ~base ~cs_lengths ~kinds () =
  (* Each grid cell is an independent machine run: flatten the
     kind x cs grid, fan the cells across domains, regroup per kind.
     Input-order merging keeps the curves identical at any domain
     count. *)
  let cells =
    List.concat_map (fun kind -> List.map (fun cs_ns -> (kind, cs_ns)) cs_lengths) kinds
  in
  let results =
    Engine.Runner.map ?domains
      (fun (kind, cs_ns) -> run { base with cs_ns; lock_kind = kind })
      cells
  in
  let tagged = List.combine cells results in
  List.map
    (fun kind ->
      let curve =
        List.filter_map
          (fun ((k, cs_ns), r) -> if k = kind then Some (cs_ns, r) else None)
          tagged
      in
      (kind, curve))
    kinds
