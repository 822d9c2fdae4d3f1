(** The state behind the paper's [simple-adapt] policy.

    A saturating spin budget in [0, cap]: 0 denotes the pure-blocking
    configuration, [cap] (or more) pure spin, anything between a
    combined spin-then-block lock. The paper's rule, applied to one
    observation of the waiting-thread count, lives in {!spec}:

    - waiting = 0: jump to [cap] (configure pure spin),
    - waiting <= threshold: budget += n,
    - waiting > threshold: budget -= 2n (clamped at 0 = pure blocking).

    Shared by the closely-coupled {!Adaptive_lock} and the
    loosely-coupled monitor-thread variant, so the coupling ablation
    compares identical policies differing only in observation
    freshness. *)

type t

val create : threshold:int -> n:int -> cap:int -> init:int -> t

val spins : t -> int

val mode : t -> string
(** ["pure spin"], ["pure blocking"] or ["combined(k)"]. *)

val apply : t -> Waiting.t -> unit
(** Write the waiting attributes corresponding to the current budget:
    pure spin disables sleeping and spins forever; otherwise the spin
    count is the budget and sleeping is enabled. *)

val set : t -> int -> unit
(** Set the budget to an explicit value (clamped into [\[0, cap\]]) —
    how the running {!spec} drives it. *)

val mode_of : cap:int -> int -> string
(** {!mode} for an arbitrary budget value under the given cap. *)

val spec :
  ?name:string ->
  threshold:int ->
  n:int ->
  cap:int ->
  init:int ->
  unit ->
  Adaptive_core.Policy.Spec.t
(** The [simple-adapt] state machine as a declarative policy spec:
    configurations are the budget values reachable from [init] under
    the rule above (named by {!mode}), transitions carry the three threshold
    regions (waiting = 0 / 1..threshold / threshold+1..) and one
    waiting-policy reconfiguration cost each. Pure data — buildable
    outside any simulation, e.g. by the static policy checker. *)

val spec_of : ?name:string -> t -> Adaptive_core.Policy.Spec.t
(** {!spec} for this budget's constants. *)
