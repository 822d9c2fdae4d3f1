(** Tables 1–3 and Figures 4–9: the TSP evaluation.

    Each table compares one parallel implementation under blocking vs
    adaptive locks; each figure is the locking pattern (waiting threads
    over time) of [qlock] or [glob-act-lock] in one of the blocking
    runs. One call to {!run_all} executes the seven simulations
    (sequential + three implementations x two lock kinds) and caches
    everything the tables and figures need. *)

type table = {
  impl : Tsp.Parallel.impl;
  sequential_ms : float;
  blocking_ms : float;
  adaptive_ms : float;
  improvement_pct : float;
  speedup_blocking : float;
  speedup_adaptive : float;
  blocking_result : Tsp.Parallel.result;
  adaptive_result : Tsp.Parallel.result;
}

type t = {
  spec : Tsp.Parallel.spec;
  sequential_ns : int;
  sequential_cost : int;
  sequential_nodes : int;
  tables : table list;  (** centralized, distributed, balanced *)
}

val run_all : ?spec:Tsp.Parallel.spec -> ?domains:int -> unit -> t
(** Runs with lock tracing enabled. [spec]'s [lock_kind] is ignored
    (both kinds run); the adaptive runs use
    {!Tsp.Parallel.tsp_adaptive_kind}. The seven simulations run in
    parallel across up to [domains] host cores; the result is
    independent of [domains]. *)

val figure : t -> impl:Tsp.Parallel.impl -> lock:string -> Engine.Series.t option
(** The waiting-thread trace of the named lock in the {e blocking} run
    of [impl]. [lock] is ["qlock"] or ["glob-act-lock"]; for the
    distributed implementations the busiest per-processor queue lock
    stands in for ["qlock"]. *)

val figure_description : impl:Tsp.Parallel.impl -> lock:string -> string
(** e.g. "Figure 4: Locking Pattern for QLOCK in the Centralized
    Implementation". *)

val all_figures : (int * Tsp.Parallel.impl * string) list
(** (figure number, implementation, lock name) for Figures 4–9. *)
