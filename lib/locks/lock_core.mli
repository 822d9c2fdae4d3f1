(** The configurable lock engine.

    One implementation parameterized by the {!Waiting} policy
    attributes, the {!Lock_sched} scheduler and a {!Lock_costs}
    profile; every flavour in the family (pure spin, back-off spin,
    blocking, combined, advisory, reconfigurable, adaptive) is a
    configuration of this engine, which is exactly the paper's point.

    A lock is reconfigurable exactly when its {!Waiting.t} is mutable
    at {!create}; static flavours {!Waiting.freeze} it first.

    Layout: the lock word, a guard word (protecting the registration
    queue) and the waiting-thread count live in simulated memory at the
    lock's home node (a reconfigurable lock adds a scratch word), so
    callers on other nodes pay remote latencies and hot locks exhibit
    module contention.

    Protocol: [lock] first test-and-sets the lock word (the
    uncontended fast path). A contended caller enters the waiting
    count, runs the spin phase prescribed by the attributes and — if
    the policy sleeps — registers under the guard, re-checks the word
    (so an unlock racing past cannot strand it) and blocks. [unlock]
    hands the lock directly to the scheduler-selected sleeper (the
    word stays held) or clears the word for spinners. *)

type t

type advice = Advise_spin | Advise_sleep

exception Misuse of string
(** Raised by {!unlock} when the calling thread does not hold the lock
    (double unlock, or unlock of someone else's lock). The message
    names the thread(s) and the lock. Raised {e before} any simulated
    state is touched, so the lock stays consistent. *)

val create :
  ?name:string ->
  ?trace:bool ->
  ?sched:Lock_sched.kind ->
  ?advisory:bool ->
  home:int ->
  policy:Waiting.t ->
  costs:Lock_costs.profile ->
  unit ->
  t
(** Must run inside a simulation. [home] is the node holding the lock's
    words; [sched] defaults to FCFS; [trace] enables the
    waiting-pattern series. [advisory] locks honour {!advise} and clear
    the advice word at each unlock (an owner's advice applies to its
    own ownership span only). *)

val name : t -> string
val stats : t -> Lock_stats.t
val policy : t -> Waiting.t

val lock : t -> unit
val try_lock : t -> bool

val lock_timeout : t -> deadline_ns:int -> bool
(** Timed acquisition: attempt to take the lock until virtual time
    reaches [deadline_ns], then give up. Built on the waiting policy's
    spin machinery (probe gap, Anderson back-off); a timed waiter
    never sleeps, since a sleeping waiter can only be released by an
    unlock handoff, which cannot be cancelled. Returns whether the
    lock was acquired; a [false] return leaves no trace on the lock
    beyond a {!Lock_stats.timeouts} tick and is safe to retry. *)

val lock_retrying :
  t -> backoff:Engine.Backoff.t -> max_attempts:int -> slice_ns:int -> bool
(** [max_attempts] slices of [lock_timeout] of [slice_ns] each,
    separated by {!Engine.Backoff} delays (the processor is released
    between attempts). The recovery idiom for acquisitions that must
    survive a delayed — or dead — lock holder. *)

val unlock : t -> unit
(** Release the lock. Raises {!Misuse} if the caller is not the
    current owner. *)

val check_unlock : name:string -> int option -> unit
(** {!unlock}'s ownership check, shared with [Switch_lock]: raises
    {!Misuse} unless the caller is [owner], the tid holding lock [name]. *)

val set_successor : t -> int -> unit
(** Designate the next owner (honoured by the Handoff scheduler at the
    next unlock, then cleared). *)

val advise : t -> advice option -> unit
(** Owner's advice to future contended requesters (advisory locks):
    [Some Advise_spin] forces spinning, [Some Advise_sleep] forces
    immediate blocking, [None] restores the attribute-driven policy.
    Writes the advice word (one simulated write). *)

val waiting_now : t -> int
(** Read the waiting-thread count word (a simulated read — this is
    what the lock monitor senses). *)

(** {1 Reconfiguration}

    Priced as the paper's Table 8. On a lock whose policy was frozen at
    {!create} each operation raises [Invalid_argument] before charging
    anything. Attributes owned by another thread refuse changes
    ({!Adaptive_core.Attribute.Not_owner}). *)

val configure_waiting :
  t ->
  ?spin_count:int ->
  ?delay_ns:int ->
  ?backoff:bool ->
  ?sleep:bool ->
  ?timeout_ns:int ->
  unit ->
  unit
(** Apply the provided attribute changes as one waiting-policy
    reconfiguration: 1R 1W plus procedure overhead. *)

val configure_scheduler : t -> Lock_sched.kind -> unit
(** Switch the scheduler kind: 5W — three sub-module writes plus
    setting and resetting the changeover flag. *)

val acquire_ownership : t -> bool
(** Attribute ownership for the calling thread (an external monitoring
    agent): a test-and-set plus overhead. *)

val release_ownership : t -> unit
