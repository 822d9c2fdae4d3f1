(** The paper's menu of lock kinds.

    Applications (the TSP solvers, the workload generators) are
    parameterized by a lock {e kind}; {!create} builds the
    {!Lock_core} configuration it names, and callers drive that lock
    through {!Lock_core} itself. *)

type kind =
  | Spin  (** pure test-and-set spinning *)
  | Backoff  (** Anderson-style back-off spinning *)
  | Blocking  (** queue-and-sleep *)
  | Combined of int  (** spin [k] probes, then sleep (Figure 1's locks) *)
  | Conditional of int  (** spin up to a deadline (ns), then sleep *)
  | Advisory  (** owner advises waiters to spin or sleep *)
  | Reconfigurable  (** mutable policy, explicit reconfiguration, no monitor *)
  | Adaptive of Spin_budget.params  (** the full feedback loop *)

val kind_name : kind -> string

val adaptive_default : kind
(** [Adaptive Spin_budget.default_params]. *)

val create :
  ?name:string -> ?trace:bool -> ?sched:Lock_sched.kind -> home:int -> kind -> Lock_core.t
(** Build a lock of the given kind homed at node [home], named
    [kind_name kind] unless [name] is given. The static kinds freeze
    their waiting policy. Must run inside a simulation. *)
