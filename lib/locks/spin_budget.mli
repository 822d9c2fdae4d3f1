(** The paper's [simple-adapt] policy and the state behind it.

    A saturating spin budget in [0, spin_cap]: 0 denotes the
    pure-blocking configuration, [spin_cap] (or more) pure spin,
    anything between a combined spin-then-block lock. The paper's
    rule (§4), applied to one observation of the waiting-thread count,
    lives in {!policy_spec}:

    {v
    IF   no-of-waiting-threads = 0                 configure pure spin
    ELSE IF no-of-waiting-threads <= Waiting-Threshold  spins += n
    ELSE                                            spins -= 2*n
    IF spins <= 0                                  configure pure blocking
    v}

    Shared by the closely-coupled adaptive lock
    ([Lock_core.Adaptive]) and the loosely-coupled monitor-thread
    variant, so the coupling ablation compares identical policies
    differing only in observation freshness. Each applied transition
    is charged as one waiting-policy reconfiguration (Table 8). *)

type params = {
  waiting_threshold : int;  (** the paper's [Waiting-Threshold] *)
  n : int;  (** the paper's lock-specific constant [n] *)
  spin_cap : int;  (** spin budget that counts as "pure spin" *)
  sample_period : int;  (** sample every k-th unlock (paper: 2) *)
}

val default_params : params
(** threshold 4, n 16, cap 32, period 2. *)

type t

val create : params -> t
(** A budget at [n] (clamped into [\[0, spin_cap\]]). Raises
    [Invalid_argument] on a negative threshold or a non-positive [n]
    or cap. *)

val spins : t -> int

val mode : t -> string
(** ["pure spin"], ["pure blocking"] or ["combined(k)"]. *)

val apply : t -> Waiting.t -> unit
(** Write the waiting attributes corresponding to the current budget:
    pure spin disables sleeping and spins forever; otherwise the spin
    count is the budget and sleeping is enabled. *)

val set : t -> int -> unit
(** Set the budget to an explicit value (clamped into [\[0, cap\]]) —
    how the running {!policy_spec} drives it. *)

val mode_of : cap:int -> int -> string
(** {!mode} for an arbitrary budget value under the given cap. *)

val policy_spec : ?params:params -> ?name:string -> unit -> Adaptive_core.Policy.Spec.t
(** [simple-adapt] as a declarative policy spec (default
    {!default_params}, default name ["adaptive-lock"]): configurations
    are the budget values reachable from [n] under the rule above
    (named by {!mode}), transitions carry the three threshold regions
    (waiting = 0 / 1..threshold / threshold+1..) and one
    waiting-policy reconfiguration cost each. What an adaptive lock
    runs and what the static checker ([Analysis.Policy_check])
    model-checks. Pure data — buildable outside any simulation. *)
