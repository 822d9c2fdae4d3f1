(** Adaptive condition variable: the wake strategy as a reconfigurable
    attribute.

    The [broadcast-hint] attribute escalates {!signal} to waking every
    waiter; the built-in monitor samples the waiter count at signal
    time (every other signal) and the policy turns the hint on when
    signals find 4 or more waiters and off when at most one is left.
    The fixed {!Condition} stays the zero-cost default. *)

type t

val policy_spec : ?name:string -> unit -> Adaptive_core.Policy.Spec.t
(** The wake-strategy policy as a declarative spec: two
    configurations, [signal-only] and [broadcast], switched on the
    waiter count observed at signal time. What {!create} runs and
    what the static checker inspects. *)

val create : ?node:int -> ?name:string -> unit -> t

val wait : t -> Spin.t -> unit
(** [wait t mu] atomically releases [mu], waits to be woken, and
    re-acquires [mu]. *)

val signal : t -> unit
(** Wake the oldest waiter — or everyone, when the [broadcast-hint]
    attribute is set. Ticks the adaptive loop. *)

val broadcasting : t -> bool
(** Current wake strategy (true = signal escalates to broadcast). *)

val loop : t -> Adaptive_core.Adaptive.t
(** The condition's feedback loop (read its metrics). *)
