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

(** The settings a caller chooses. The model's fixed decisions are
    constants (DESIGN §3b): 700 extra ns per work unit expanded on a
    remote node, 12,000 ns per queue manipulation, a nearest-neighbour
    tour as every run's initial best value, a continuation depth of 0
    (centralized) or 16 (distributed), and machine seed [0x5eed]. *)
type spec = {
  cities : int;
  instance_seed : int;  (** {!Instance.generate}'s seed *)
  searchers : int;  (** one dedicated processor each *)
  lock_kind : Locks.Lock.kind;  (** used for all four locks *)
  trace_locks : bool;  (** record Figures 4–9 waiting patterns *)
  work_unit_ns : int;  (** virtual ns per abstract LMSK work unit *)
}

val tsp_adaptive_kind : Locks.Lock.kind

val default_spec : spec
(** The paper's setup: 32 cities (uniform costs in [\[1, 100\]], seed
    11), 10 searchers, blocking locks, work units calibrated so the
    sequential baseline lands at the paper's ~20.7 s. *)

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
      (** one entry per lock, named as created: a centralized run's
          ["qlock"] and ["glob-low-lock"], a distributed run's
          per-searcher ["qlock.i"] and ["glob-low-lock.i"], then
          ["glob-act-lock"] and ["globlock"] *)
  adaptations : int;  (** total reconfigurations across all locks *)
}

val run : impl -> spec -> result

val scenario : impl:impl -> spec -> Butterfly.Config.t * (unit -> unit)
(** The machine {!run} uses and the searcher-pool program as a bare
    thunk, for running under an externally owned simulator (the
    sanitizers of [lib/analysis]); results are discarded. *)

val run_sequential : spec -> int * (int * int)
(** The sequential baseline on one simulated processor, charging the
    same per-node work and queue costs but no locks. Returns
    (virtual ns, (tour cost, nodes expanded)). *)
