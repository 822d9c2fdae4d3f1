(** Critical-section-length sweep — the workload behind Figure 1.

    A fixed population of threads (more threads than processors, so
    spinning actually prevents other threads' progress) repeatedly
    enters one shared critical section of configurable length, with
    configurable "think time" between entries. The figure compares
    application execution time across lock kinds (pure spin, pure
    blocking, combined with 1/10/50 initial spins) as the critical
    section grows. *)

type spec = {
  processors : int;
  threads_per_proc : int;
  iterations : int;  (** critical-section entries per thread *)
  cs_ns : int;  (** critical-section length *)
  think_ns : int;  (** local work between entries *)
  lock_kind : Locks.Lock.kind;
  seed : int;
}

val default : spec
(** 8 processors, 3 threads each, 40 iterations, 20 us sections, 30 us
    think time, pure spin. *)

type result = {
  spec : spec;
  total_ns : int;  (** application execution time (virtual) *)
  mean_wait_ns : float;
  contended : int;
  blocks : int;
  spin_probes : int;
  adaptations : int;
}

val run : ?machine:Butterfly.Config.t -> spec -> result
(** Execute one configuration on a fresh simulated machine: [machine]
    (default {!Butterfly.Config.default}) with the spec's processors
    and seed. *)

val scenario : spec -> Butterfly.Config.t * (unit -> unit)
(** The default machine {!run} uses and the workload program as a
    bare thunk, for an externally owned simulator (the sanitizers):
    same threads and lock traffic as {!run}, results discarded. *)

val sweep :
  ?domains:int ->
  base:spec ->
  cs_lengths:int list ->
  kinds:Locks.Lock.kind list ->
  unit ->
  (Locks.Lock.kind * (int * result) list) list
(** The full Figure 1 grid: for every kind, a curve of (cs length,
    result). Cells run in parallel across up to [domains] host cores
    (default {!Engine.Runner.default_domains}); each cell is its own
    deterministic machine, so the output does not depend on
    [domains]. *)
