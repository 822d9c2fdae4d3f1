(** Unified facade over the lock family.

    Applications (the TSP solvers, the workload generators) are
    parameterized by a lock {e kind}; this module builds any member of
    the family. Every kind is one {!Lock_core.t}, so [lock] and
    [try_lock] go straight to the engine; only an adaptive lock's
    [unlock] also ticks its feedback loop. *)

type kind =
  | Spin  (** pure test-and-set spinning *)
  | Backoff  (** Anderson-style back-off spinning *)
  | Blocking  (** queue-and-sleep *)
  | Combined of int  (** spin [k] probes, then sleep (Figure 1's locks) *)
  | Conditional of int  (** spin up to a deadline (ns), then sleep *)
  | Advisory  (** owner advises waiters to spin or sleep *)
  | Reconfigurable  (** mutable policy, explicit reconfiguration, no monitor *)
  | Adaptive of Adaptive_lock.params  (** the full feedback loop *)

val kind_name : kind -> string

val adaptive_default : kind
(** [Adaptive Adaptive_lock.default_params]. *)

type t

val create : ?name:string -> ?trace:bool -> ?sched:Lock_sched.kind -> home:int -> kind -> t
(** Build a lock of the given kind homed at node [home]. Must run
    inside a simulation. *)

val kind : t -> kind
val name : t -> string
val stats : t -> Lock_stats.t

val lock : t -> unit

val unlock : t -> unit
(** Release the lock. Raises {!Lock_core.Misuse} if the calling thread
    does not hold it — a double unlock or an unlock by a non-owner is a
    program bug, not a no-op. *)

val try_lock : t -> bool

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] inside the critical section (unlocks even
    if [f] raises). *)

val advise : t -> Lock_core.advice option -> unit
(** Set the advisory word (meaningful on any kind; only contended
    acquisitions consult it). *)

val set_successor : t -> Cthreads.Cthread.t -> unit
(** Designate the handoff successor (used with the Handoff
    scheduler). *)

val as_adaptive : t -> Adaptive_lock.t option

val core : t -> Lock_core.t
(** The underlying engine (for monitors, reconfiguration and tests). *)
