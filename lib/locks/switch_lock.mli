(** A lock whose {e implementation} is the adaptive attribute — the
    "Adjusted Objects" direction: plain test-and-set spinning under
    low contention, an MCS-style queue of locally-homed flag words
    under high contention, blocking handoff when ownership spans
    exceed the deschedule round trip.

    The implementation is hot-swapped by a fail-safe quiescence
    protocol run by the current lock holder: freeze new arrivals,
    kick and drain every registered waiter (spinners, queued waiters
    and sleepers alike re-arm their mailbox and re-enter with their
    original ticket, so queued FIFO order survives), then commit the
    flip atomically in virtual time — or roll back if the drain does
    not quiesce before the swap deadline (a stalled or killed
    participant must not wedge the lock half-swapped). A swapper that
    dies mid-swap leaves a freeze whose deadline ages out; any waiter
    then clears it (abandoned-swap recovery). *)

type impl = Tas | Mcs | Blocking

val impl_id : impl -> int
val impl_of_id : int -> impl
val impl_label : impl -> string

(** Seeded defects for the analysis fixtures (never shipped). At a
    swap, [Lost_sleeper_on_swap] drops sleeping waiters from the
    queue without a wakeup — the lost-waiter window the swap-window
    predictor must catch; [Double_grant_on_swap] grants a sleeping
    waiter instead of migrating it while the swapper still owns the
    lock — the double-grant escape. *)
type bug = Lost_sleeper_on_swap | Double_grant_on_swap

type params = {
  queue_threshold : int;  (** waiters at/above this: adopt the MCS queue *)
  uncontended_max : int;  (** waiters at/below this: adopt plain TAS *)
  hold_ns_threshold : int;  (** mean hold above this: adopt blocking *)
  sample_period : int;
  repeats : int;  (** hysteresis: consecutive matching samples per swap *)
  swap_timeout_ns : int;  (** drain budget before a swap rolls back *)
  swap_grace_ns : int;  (** slack before a swap is presumed abandoned *)
}

val default_params : params

val default_guardrail : Guardrail.params
(** Clamp sized to the composite metric (0–199), so the blocking
    region stays reachable under the guardrail. *)

type t

val create :
  ?name:string ->
  ?trace:bool ->
  ?params:params ->
  ?guardrail:Guardrail.params ->
  ?fixed:impl ->
  ?initial:impl ->
  ?bug:bug ->
  home:int ->
  unit ->
  t
(** [fixed] pins one implementation: no feedback loop is built and
    {!swap_to}/{!set_impl} raise {!Lock_core.Misuse} — the fixed
    variants of the ablation cannot be hot-swapped out from under
    their premise. [initial] also starts at the given implementation
    with no feedback loop, but leaves explicit {!swap_to} available —
    for manually driven swap windows (fixtures, benchmarks). The two
    are mutually exclusive. [guardrail] attaches a {!Guardrail} to
    the compiled ladder. *)

val lock : t -> unit
val try_lock : t -> bool

val lock_timeout : t -> deadline_ns:int -> bool
(** Timed acquisition; timed waiters poll and never sleep, and a
    grant that lands exactly at expiry is taken and released rather
    than lost. *)

val unlock : t -> unit
(** Releases; the feedback loop ticks first, while ownership still
    belongs to the caller — only the holder may swap. *)

val swap_to : t -> impl -> bool
(** Run the quiescence protocol toward [impl] from inside an owned
    critical section. True on commit, false on rollback — including
    when a drain that outlived its grace window finds the freeze
    already cleared by abandoned-swap recovery (the commit
    re-validates ownership of the freeze rather than flip over
    re-parked waiters). Raises {!Lock_core.Misuse} when the caller
    does not hold the lock, or when the lock was created with
    [fixed]. *)

val set_impl : t -> impl -> bool
(** [lock]; {!swap_to}; [unlock] — for explicit reconfiguration. *)

val policy_spec :
  ?params:params -> ?guardrail:Guardrail.params -> ?name:string -> unit ->
  Adaptive_core.Policy.Spec.t
(** The implementation ladder as a declarative spec
    ([s_kind = "lock-impl"], metric ["contention-score"]): what the
    static policy checker inspects and what {!create} compiles, so
    the two cannot drift. *)

val name : t -> string
val home : t -> int
val stats : t -> Lock_stats.t
val current_impl : t -> impl
val waiting_now : t -> int
val hold_avg_ns : t -> int

val epoch : t -> int
(** Committed swaps. *)

val swap_rollbacks : t -> int
val abandoned_recoveries : t -> int

(** Conformance instrumentation: [probe tid label] is called at each
    protocol transition (labels match the [Proto_models.quiescence]
    rule vocabulary: freeze, kick, drain-ok, commit, park, granted,
    …). Emissions inside guard-held sections happen before the guard
    is released, so the probe sees the real linearization order. For
    [Analysis.Proto_check] conformance tests only; [None] (the
    default) costs one branch per transition. *)
val set_transition_probe : t -> (int -> string -> unit) option -> unit
val adaptations : t -> int
val samples : t -> int
val feedback : t -> int Adaptive_core.Adaptive.t option
val guardrail : t -> Adaptive_core.Policy.Guard.t option
