(** The configurable lock: one record whose {e implementation} and
    {e waiting policy} are both attributes, so every flavour in the
    family — pure spin, back-off spin, blocking, combined, advisory,
    reconfigurable, adaptive, and the hot-swapped implementations — is
    a configuration of this one lock, which is exactly the paper's
    point. {!Lock} names the paper's menu of these configurations.

    An adaptive configuration carries its feedback loop in the lock
    record ({!feedback}): [Adaptive] runs the paper's [simple-adapt]
    over the centralized word's waiting attributes, [Ladder] the
    implementation ladder over the registered implementations. The
    loop is the built-in monitor of the paper's adaptive object: it
    ticks inside {!unlock}, the one release path, and nowhere else.

    Layout: the lock word, a guard word (protecting the waiter queue)
    and the waiting-thread count live in simulated memory at the
    lock's home node, so callers on other nodes pay remote latencies
    and hot locks exhibit module contention. Every implementation
    shares one acquire entry ({!lock} is {!lock_timeout} with no
    deadline), its uncontended fast path (a fused test-and-set of the
    word), the waiting count, the acquisition bookkeeping and the
    ownership check of {!unlock}.

    [Centralized] is the paper's centralized word: a contended caller
    runs the spin phase its {!Waiting} attributes prescribe and — if
    the policy sleeps — registers under the guard, re-checks the word
    (so an unlock racing past cannot strand it) and blocks; [unlock]
    hands the word directly to the {!Lock_sched}-selected sleeper or
    clears it. It adds an advice word, and a scratch word when the
    policy is reconfigurable: exactly when its {!Waiting.t} is
    mutable at {!create} (static flavours {!Waiting.freeze} it).

    [Tas], [Mcs] and [Blocking] are the registered-waiter
    implementations (the "Adjusted Objects" direction): plain
    test-and-set spinning, an MCS-style queue of locally-homed flag
    words, and blocking handoff; every contended waiter registers a
    mailbox word at its own node. On a lock created swappable the
    implementation is hot-swapped by a fail-safe quiescence protocol
    run by the lock holder: freeze new arrivals, kick and drain every
    registered waiter (each re-arms and re-enters in its original
    queue slot, so queued FIFO order survives), then commit the flip — or
    roll back if the drain does not quiesce before the swap deadline.
    A swapper that dies mid-swap leaves a freeze whose deadline ages
    out; any waiter then clears it (abandoned-swap recovery). These
    locks add the swap's control, acknowledgment and implementation
    words. *)

type t

type advice = Advise_spin | Advise_sleep

exception Misuse of string
(** Raised by {!unlock} when the calling thread does not hold the lock
    (double unlock, or unlock of someone else's lock), and by
    {!swap_to} on a lock that is not swappable or not held by the
    caller. The message names the thread(s) and the lock. Raised
    {e before} any simulated state is touched, so the lock stays
    consistent. *)

type impl = Centralized | Tas | Mcs | Blocking

val impl_label : impl -> string

(** Seeded defects for the analysis fixtures (never shipped). At a
    swap, [Lost_sleeper_on_swap] drops sleeping waiters from the
    queue without a wakeup — the lost-waiter window the swap-window
    predictor must catch; [Double_grant_on_swap] grants a sleeping
    waiter instead of migrating it while the swapper still owns the
    lock — the double-grant escape. *)
type bug = Lost_sleeper_on_swap | Double_grant_on_swap

(** The registered implementations' swap and ladder parameters. *)
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

(** What {!create} builds: the centralized word under a waiting policy
    and cost profile; the adaptive lock ([Adaptive]: the centralized
    word under a mutable combined policy of [n] spins and the
    {!Lock_costs.reconfigurable} profile, retuned by
    {!Spin_budget.policy_spec} from a sample of the waiting count
    every [sample_period]-th unlock); a registered implementation
    pinned ([Fixed]:
    {!swap_to} raises {!Misuse}) or swapped only by explicit
    {!swap_to} ([Swappable]); or, on the [Ladder], swappable from
    [Tas] under the implementation ladder ({!impl_ladder_spec}). *)
type implementation =
  | Central of Waiting.t * Lock_costs.profile
  | Adaptive of Spin_budget.params
  | Fixed of impl
  | Swappable of impl
  | Ladder

val create :
  ?name:string ->
  ?trace:bool ->
  ?sched:Lock_sched.kind ->
  ?advisory:bool ->
  ?params:params ->
  ?bug:bug ->
  home:int ->
  impl:implementation ->
  unit ->
  t
(** Must run inside a simulation. [home] is the node holding the lock's
    words; [trace] enables the waiting-pattern series. For the
    centralized word, [sched] (default FCFS) orders the sleepers and
    [advisory] locks honour {!advise} and clear the advice word at
    each unlock (an owner's advice applies to its own ownership span
    only). For the registered implementations, [params] sets the
    swap and ladder parameters (default {!default_params}), the
    ladder's guardrail clamp is its composite metric's range, 0–199,
    so the blocking region stays reachable and only a score no
    non-negative waiting count produces is pathological (it feeds the
    guard and drives no swap), and [bug] seeds an
    analysis-fixture defect. [Fixed Centralized] and [Swappable Centralized] raise
    [Invalid_argument]: the centralized word needs a waiting policy.
    So does an argument the implementation would ignore: [params] or
    [bug] with [Central] or [Adaptive] (whose parameters ride in the
    constructor), [sched] or [advisory] with [Fixed], [Swappable] or
    [Ladder]. *)

val name : t -> string
val stats : t -> Lock_stats.t

val current_impl : t -> impl

val lock : t -> unit
(** Acquire, waiting without bound: {!lock_timeout} with no deadline.
    This is the only waiter that may sleep, as the waiting policy (on
    the centralized word) or the [Blocking] implementation prescribes. *)

val try_lock : t -> bool
(** The first attempt of {!lock} alone: true iff the word was free. *)

val lock_timeout : t -> deadline_ns:int -> bool
(** Timed acquisition, with the same meaning on every implementation.
    The first attempt is made whatever the deadline, so a free lock is
    always taken. After each failed attempt the deadline is checked: a
    [deadline_ns] at or before the current virtual time, negative
    included, expires at its first check. An expired call returns
    [false], leaves no trace on the lock beyond one
    {!Lock_stats.timeouts} tick, and is safe to retry. A timed waiter
    never sleeps, since a sleeping waiter can only be released by an
    unlock handoff, which cannot be cancelled. On the centralized word
    it probes with the waiting policy's gap and Anderson back-off; a
    registered waiter polls its mailbox, and a grant that lands
    exactly at expiry is taken and released rather than lost. Returns
    whether the lock was acquired. *)

val unlock : t -> unit
(** Release the lock. Raises {!Misuse} if the caller is not the
    current owner. An adaptive lock's feedback loop ticks here. On the
    ladder it ticks first, while ownership still belongs to the
    caller — only the holder may swap. On the centralized word it
    ticks after the release, so the sample and any reconfiguration
    stay out of the ownership span. *)

val feedback : t -> Adaptive_core.Adaptive.t option
(** The lock's feedback loop: [Some] on an [Adaptive] or [Ladder]
    lock, whose samples, adaptations and log it reports. *)

val waiting_now : t -> int
(** Read the waiting-thread count word (a simulated read — this is
    what the lock monitor senses). *)

(** {1 The centralized word's waiting policy}

    Each raises [Invalid_argument] on a registered implementation. *)

val policy : t -> Waiting.t

val set_successor : t -> int -> unit
(** Designate the next owner (honoured by the Handoff scheduler at the
    next unlock, then cleared). *)

val advise : t -> advice option -> unit
(** Owner's advice to future contended requesters (advisory locks):
    [Some Advise_spin] forces spinning, [Some Advise_sleep] forces
    immediate blocking, [None] restores the attribute-driven policy.
    Writes the advice word (one simulated write). *)

(** {2 Reconfiguration}

    Priced as the paper's Table 8. On a lock whose policy was frozen at
    {!create} each operation raises [Invalid_argument] before charging
    anything. Attributes owned by another thread refuse changes
    ({!Adaptive_core.Attribute.Not_owner}). *)

val configure_waiting : t -> ?spin_count:int -> ?sleep:bool -> unit -> unit
(** Apply the provided attribute changes as one waiting-policy
    reconfiguration: 1R 1W plus procedure overhead. *)

val configure_scheduler : t -> Lock_sched.kind -> unit
(** Switch the scheduler kind: 5W — three sub-module writes plus
    setting and resetting the changeover flag. *)

val acquire_ownership : t -> bool
(** Attribute ownership for the calling thread (an external monitoring
    agent): a test-and-set plus overhead. *)

val release_ownership : t -> unit

(** {1 The implementation attribute} *)

val swap_to : t -> impl -> bool
(** Run the quiescence protocol toward [impl] from inside an owned
    critical section. True on commit, false on rollback — including
    when a drain that outlived its grace window finds the freeze
    already cleared by abandoned-swap recovery (the commit
    re-validates ownership of the freeze rather than flip over
    re-parked waiters). Raises {!Misuse} when the lock was not created
    swappable or the caller does not hold it, and [Invalid_argument]
    toward [Centralized]. *)

val impl_ladder_spec :
  ?params:params -> ?name:string -> unit ->
  Adaptive_core.Policy.Spec.t
(** The implementation ladder as a declarative spec
    ([s_kind = "lock-impl"], metric ["contention-score"], default name
    ["switch-lock"]): what the static policy checker inspects and what
    a [Ladder] lock runs, so the two cannot drift. *)

val epoch : t -> int
(** Committed swaps (0 on the centralized word, as are the counters
    below). *)

val swap_rollbacks : t -> int
val abandoned_recoveries : t -> int
val set_transition_probe : t -> (int -> string -> unit) option -> unit
(** Conformance instrumentation for a registered implementation:
    [probe tid label] is called at each protocol transition (labels
    match the [Proto_models.quiescence] rule vocabulary: freeze, kick,
    drain-ok, commit, park, granted, …). Emissions inside guard-held
    sections happen before the guard is released, so the probe sees
    the real linearization order. For [Analysis.Proto_check]
    conformance tests only; [None] (the default) costs one branch per
    transition. *)
