(** Phased workload: the contention regime changes between phases.

    Each phase prescribes how many of the worker threads actively
    hammer the shared lock (the rest compute locally) and how long the
    critical sections are. Static locks are tuned for one regime and
    suffer in the other; an adaptive lock reconfigures at phase
    boundaries — the scenario motivating "the optimal waiting policy
    might differ during different phases of a computation" (§2). *)

type phase = {
  active_threads : int;  (** how many workers contend in this phase *)
  cs_ns : int;
  entries : int;  (** critical-section entries per active worker *)
}

type spec = {
  processors : int;
  workers : int;
  phases : phase list;
  think_ns : int;
  lock_kind : Locks.Lock.kind;
  seed : int;
}

val default : spec
(** Three phases: solo (no contention), storm (all workers), solo
    again. *)

type result = {
  spec : spec;
  total_ns : int;
  adaptations : int;
  adaptation_log : (int * string) list;  (** adaptive locks only *)
  mean_wait_ns : float;
  blocks : int;
}

val run : spec -> result

val scenario : spec -> Butterfly.Config.t * (unit -> unit)
(** The machine {!run} uses and the workload program as a bare thunk,
    for an externally owned simulator (the sanitizers): same threads
    and lock traffic as {!run}, results discarded. *)

val compare_kinds :
  ?domains:int ->
  spec ->
  Locks.Lock.kind list ->
  (Locks.Lock.kind * result) list
(** One independent machine per kind, run in parallel across up to
    [domains] host cores; result order follows the input kinds. *)
