(** A loosely-coupled adaptive lock: same [simple-adapt] policy as
    the closely-coupled [Locks.Lock_core.Adaptive] lock, but the
    feedback loop runs through the general-purpose monitor.

    Every [sample_period]-th unlock publishes (timestamp,
    waiting-thread count) into a {!Ring_buffer}; a {!Monitor_thread} on
    a dedicated processor drains the buffer and feeds each (possibly
    stale) observation to a genuine [Adaptive_core.Adaptive] loop via
    [Adaptive.feed] — the policy is the same [simple-adapt] spec the
    closely-coupled lock runs ({!Locks.Spin_budget.policy_spec});
    only the [apply] differs, acquiring attribute ownership the way an
    external agent must. The
    paper found exactly this structure "too loosely coupled to be used
    in adaptive lock objects"; the coupling ablation quantifies that
    claim by comparing this lock against the built-in closely-coupled
    one. *)

type t

val create :
  ?poll_interval_ns:int ->
  home:int ->
  monitor_proc:int ->
  unit ->
  t
(** A lock named ["loose-adaptive-lock"] with
    {!Locks.Spin_budget.default_params}. The monitor thread is forked
    immediately, pinned to
    [monitor_proc] (dedicate that processor: do not place application
    threads there). *)

val lock : t -> unit
val unlock : t -> unit

val shutdown : t -> unit
(** Stop and join the monitor thread (required before the simulation
    can finish). *)

val adaptations : t -> int

val max_lag_ns : t -> int
(** Worst observation staleness seen by the policy — the adaptation
    lag of §3's "coupling of the feedback loop". *)

val mode : t -> string
