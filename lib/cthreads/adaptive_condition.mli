(** Adaptive condition variable: wake-strategy and spin-wait budget as
    reconfigurable attributes.

    Two attributes drive it. [wait-spin-ns] gives each waiter a spin
    budget: after registering (so no signal can be lost) it polls the
    condition's signal-sequence word as a {e hint}, then always calls
    [block] — a signal that landed during the spin left a wake token,
    so the block returns immediately and the deschedule/resume pair is
    saved; the hint can never break correctness. [broadcast-hint]
    escalates {!signal} to waking every waiter; the built-in monitor
    samples the waiter count at signal time and the default policy
    turns the hint on when signals keep finding a crowd and off when
    waiters are scarce. The fixed {!Condition} stays the zero-cost
    default. *)

type t

type observation = {
  waiting : int;  (** waiters present when the signal was issued *)
  broadcast : bool;  (** current wake strategy *)
}

val policy_spec :
  ?name:string ->
  ?attribute:string ->
  ?broadcast_over:int ->
  unit ->
  Adaptive_core.Policy.Spec.t
(** The wake-strategy policy as a declarative spec (defaults match
    {!create}): two configurations, [signal-only] and [broadcast],
    switched on the waiter count observed at signal time. What
    {!create} compiles and what the static checker inspects. *)

val create :
  ?node:int -> ?name:string -> ?period:int -> ?broadcast_over:int -> unit -> t
(** [period] is the sensor sampling period in signal operations
    (default 2, the paper's every-other-operation rate). The default
    policy escalates to broadcast at [broadcast_over] waiters (default
    4) and de-escalates at <= 1.

    Raises [Invalid_argument] when [broadcast_over < 2]: the
    escalation band would then overlap the de-escalation band (waiters
    <= 1), bouncing the strategy on every signal with one waiter
    present. *)

val wait : t -> Spin.t -> unit
(** [wait t mu] atomically releases [mu], waits to be woken (spinning
    up to the current budget first), and re-acquires [mu]. *)

val signal : t -> unit
(** Wake the oldest waiter — or everyone, when the [broadcast-hint]
    attribute is set. Ticks the adaptive loop. *)

val broadcasting : t -> bool
(** Current wake strategy (true = signal escalates to broadcast). *)

val loop : t -> observation Adaptive_core.Adaptive.t
(** The condition's feedback loop (subscribe, swap policies, read
    metrics). *)
