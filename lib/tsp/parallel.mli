(** The three parallel TSP implementations of §4.

    All are collections of searcher threads, one per dedicated
    processor, cooperating through a shared work pool of LMSK
    subproblems and a shared best-tour value, synchronized by the four
    paper locks:

    - [qlock] — mutual exclusion of the work queue(s),
    - [glob-act-lock] — the count of active searchers (termination),
    - [glob-low-lock] — the best-tour value,
    - [globlock] — multi-purpose (records the best tour's path and
      run bookkeeping).

    The implementations differ in the placement of the shared
    abstractions:

    - {b Centralized}: one global best-first queue and one global best
      value on a single node — consistent and optimally pruned, but
      [qlock] and [glob-act-lock] are heavily contended (Figures 4–5).
    - {b Distributed}: per-processor queues connected in a ring (an
      empty searcher steals from the next non-empty queue along the
      ring) and per-processor best-value copies propagated on
      improvement — lower contention (Figures 6–7) at the price of
      useless node expansions from stale bounds and partial ordering.
    - {b Balanced}: distributed plus the load-balancing rule — each
      time a searcher needs work it first moves one subproblem from its
      ring neighbour's queue into its own, then takes its local best
      (Figures 8–9). *)

type impl = Centralized | Distributed | Balanced

val impl_name : impl -> string

type instance_kind =
  | Uniform of int  (** asymmetric, uniform costs in [1, max] *)
  | Euclidean  (** symmetric rounded-distance costs (harder trees) *)

type spec = {
  cities : int;
  instance_kind : instance_kind;
  instance_seed : int;
  searchers : int;  (** one dedicated processor each *)
  lock_kind : Locks.Lock.kind;  (** used for all four locks *)
  trace_locks : bool;  (** record Figures 4–9 waiting patterns *)
  work_unit_ns : int;  (** virtual ns per abstract LMSK work unit *)
  remote_penalty_ns : int;
      (** extra ns per work unit when the expanded subproblem's data
          lives on a remote node (the centralized implementation pays
          this on nearly every expansion — the paper's "most of the
          work is performed locally" advantage of the distributed
          versions) *)
  queue_op_ns : int;  (** modeled cost of one queue manipulation *)
  prime_with_greedy : bool;
      (** seed the best-tour value with a nearest-neighbour tour before
          searching (standard branch-and-bound practice; prevents the
          distributed versions' pre-first-tour junk explosion from
          dominating) *)
  continuation_depth : int option;
      (** queue-visit granularity: a searcher may continue depth-first
          with the most promising child (queueing only siblings) for
          this many successive expansions before it must exchange with
          the shared queue; 0 routes every node through the queue.
          [None] selects the per-implementation default after the
          paper: 0 for the centralized implementation (its global
          ordering is strictly maintained) and 16 for the distributed
          ones (partially ordered local queues). *)
  machine_seed : int;
}

val tsp_adaptive_kind : Locks.Lock.kind

val default_spec : spec
(** The paper's setup: 32 cities (Euclidean, seed 1), 10 searchers,
    blocking locks, work units calibrated so the sequential baseline
    lands at the paper's ~20.7 s. *)

val instance_of_spec : spec -> Instance.t

type result = {
  impl : impl;
  spec : spec;
  tour_cost : int;
  total_ns : int;  (** application execution time *)
  nodes_expanded : int;
  useless_expansions : int;
      (** expansions of nodes whose bound already exceeded the final
          optimum (the distributed implementations' waste) *)
  lock_reports : (string * Locks.Lock_stats.t) list;
      (** one entry per lock; distributed queue locks are reported
          per-processor plus a ["qlock"] entry for the traced
          representative *)
  adaptations : int;  (** total reconfigurations across all locks *)
}

val run : impl -> spec -> result

val scenario : ?impl:impl -> spec -> unit -> unit
(** The searcher-pool program as a bare thunk, for running under an
    externally owned simulator (the sanitizers of [lib/analysis]).
    Must run inside a machine with at least [spec.searchers + 1]
    processors; results are discarded. [impl] defaults to
    [Centralized]. *)

val run_sequential : spec -> int * (int * int)
(** The sequential baseline on one simulated processor, charging the
    same per-node work and queue costs but no locks. Returns
    (virtual ns, (tour cost, nodes expanded)). *)
