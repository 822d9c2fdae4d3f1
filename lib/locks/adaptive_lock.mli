(** Adaptive locks: the paper's headline object.

    A reconfigurable {!Lock_core} lock plus a built-in, closely-coupled
    monitor (a {!Adaptive_core.Sensor} on the waiting-thread count, sampled
    once every [sample_period] unlock operations — the paper uses every
    other unlock) and a user-provided adaptation policy, declared as a
    spec ({!policy_spec}), that retunes the waiting attributes.

    The policy is the paper's [simple-adapt] (§4):

    {v
    IF   no-of-waiting-threads = 0                 configure pure spin
    ELSE IF no-of-waiting-threads <= Waiting-Threshold  spins += n
    ELSE                                            spins -= 2*n
    IF spins <= 0                                  configure pure blocking
    v}

    The spin budget is a saturating counter in [0, spin_cap]: 0 is the
    pure-blocking configuration, [spin_cap] the pure-spin one, anything
    between a combined spin-then-block lock. Each applied transition is
    charged as one waiting-policy reconfiguration (Table 8). *)

type t

type params = {
  waiting_threshold : int;  (** the paper's [Waiting-Threshold] *)
  n : int;  (** the paper's lock-specific constant [n] *)
  spin_cap : int;  (** spin budget that counts as "pure spin" *)
  sample_period : int;  (** sample every k-th unlock (paper: 2) *)
}

val default_params : params
(** threshold 4, n 16, cap 32, period 2. *)

val create :
  ?name:string ->
  ?trace:bool ->
  ?sched:Lock_sched.kind ->
  ?params:params ->
  home:int ->
  unit ->
  t
(** The lock starts in the combined configuration with [n] spins and
    runs [policy_spec ~params ~name ()]. *)

val lock : t -> unit

val unlock : t -> unit
(** Releases the lock, then runs the monitor/adaptation tick (the
    closely-coupled feedback loop executes inside the application
    thread, not a separate monitoring thread). *)

val stats : t -> Lock_stats.t

val core : t -> Lock_core.t
(** The engine, whose mutable policy the loop reconfigures. *)

val feedback : t -> Adaptive_core.Adaptive.t

val mode : t -> string
(** ["pure spin"], ["pure blocking"] or ["combined(k)"]. *)

val adaptations : t -> int
val samples : t -> int

val policy_spec :
  ?params:params ->
  ?name:string ->
  unit ->
  Adaptive_core.Policy.Spec.t
(** [simple-adapt] as a declarative policy spec — the artifact the
    static checker ([Analysis.Policy_check]) model-checks, and exactly
    what {!create} runs as its policy. Pure data;
    buildable outside a simulation. *)
