(** Adaptation policies and reconfiguration decisions.

    The user-provided component of an adaptive object is a declarative
    {!Spec.t}: a finite automaton over named configurations, driven by
    threshold regions of one observed metric. {!Spec.compile} turns it
    into the closure the feedback loop consults once per observation;
    it is the only way to build one, because {!decision} is private.
    So the policy that runs is always the policy the static checker
    ([Analysis.Policy_check]) checked. A decision carries the
    reconfiguration closure (the paper's Psi operation) together with
    its declared {!Cost.t}, which the feedback loop charges at the
    object's home node when applying it. *)

type decision = private
  | No_change
  | Reconfigure of { label : string; cost : Cost.t; apply : unit -> bool }
      (** [label] names the transition for traces and tests; [apply]
          performs the actual attribute/method changes and reports
          whether they took effect — an external-agent apply that
          cannot acquire attribute ownership returns [false], and the
          feedback loop then counts, logs and announces nothing. *)

type 'obs t = 'obs -> decision
(** A compiled policy maps monitor observations to decisions. *)

(** Guardrail state machine behind a spec's [s_guard]: count
    consecutive pathological observations, order a fallback after a
    streak, then suspend counting for a cooldown (hysteresis, so the
    fallback cannot immediately re-trigger). {!Spec.compile} builds
    one from the spec's [g_limit] and [g_cooldown] and feeds it the
    clamp verdicts. *)
module Guard : sig
  type t

  val create : pathological_limit:int -> cooldown:int -> t
  (** [pathological_limit] consecutive pathological observations
      trigger a fallback; counting is then suspended for the following
      [cooldown]. Raises [Invalid_argument] on a non-positive limit or
      a negative cooldown. *)

  val note : t -> pathological:bool -> bool
  (** Record one observation's verdict; [true] orders a fallback. *)

  val streak : t -> int
  (** Current consecutive pathological-observation count. *)

  val fallbacks : t -> int
  (** Fallbacks ordered so far. *)

end

(** Declarative adaptation-policy IR.

    A {!Spec.t} reifies what an adaptation policy {e is} — a finite
    automaton over named configurations, driven by threshold regions of
    one observed metric, with per-transition hysteresis counters and an
    optional guardrail — so that tools can inspect it. The static
    checker ([Analysis.Policy_check]) model-checks specs for thrash
    cycles, dead configurations, threshold faults, guardrail gaps and
    cross-object conflicts without running the simulator; {!Spec.compile}
    turns the same spec into the executable closure form (what
    [Adaptive.create] does with every object's spec), so the runtime
    policy and the checked artifact cannot drift apart.

    Limits of the abstraction (soundness caveats): the metric is one
    scalar per observation; conditions are inclusive intervals on it;
    configurations are a finite set identified by an integer value
    (the attribute setting). A configuration reached only by mutating
    the attribute externally to a value outside [s_configs] puts the
    compiled policy into an inert state (it decides [No_change] until
    the value returns to a known configuration). *)
module Spec : sig
  type cond = { lo : int; hi : int option }
      (** metric in [\[lo, hi\]], inclusive; [hi = None] means
          unbounded above. *)

  type config = { c_name : string; c_value : int }
      (** A configuration: [c_value] is the attribute setting (unique
          within a spec, used as the configuration's identity),
          [c_name] the display name (also used as the transition label
          when [t_label] is empty — see below). *)

  type transition = {
    t_from : int;  (** source configuration, by [c_value] *)
    t_cond : cond;  (** metric region that enables the transition *)
    t_target : int;  (** target configuration, by [c_value] *)
    t_label : string;  (** reconfiguration label for logs/annotations *)
    t_repeats : int;
        (** consecutive enabled samples required before firing
            (the AdaptiveMHA-style [neededRepeats]; 1 = immediate) *)
    t_cost : Cost.t;  (** charged per applied reconfiguration *)
  }

  type guard_spec = {
    g_clamp_lo : int;
    g_clamp_hi : int;
        (** raw metrics clamped into [\[lo, hi\]]; a clamped sample is
            pathological *)
    g_limit : int;  (** consecutive pathological samples before fallback *)
    g_cooldown : int;  (** samples with counting suspended afterwards *)
    g_fallback : int;  (** fallback target configuration, by value *)
    g_fallback_label : string;
    g_fallback_cost : Cost.t;
  }

  (** Declared metric-to-configuration polarity, used by the checker's
      inverted-threshold detection: [Up_at_low] policies move to
      higher-valued configurations when the metric is low (spin
      budgets under short waits), [Up_at_high] when it is high
      (writer preference under writer pressure). *)
  type monotone = Up_at_low | Up_at_high | Unordered

  type t = {
    s_name : string;  (** the policy/object this spec describes *)
    s_kind : string;  (** object family (["lock"], ["barrier"], ...) *)
    s_attribute : string;
        (** identity of the attribute the policy drives; two specs
            sharing an [s_attribute] are checked as co-writers of one
            attribute (cross-object conflicts) *)
    s_metric : string;  (** name of the observed metric *)
    s_monotone : monotone;
    s_configs : config list;  (** ascending [c_value] order *)
    s_initial : int;  (** starting configuration, by value *)
    s_transitions : transition list;
        (** priority order: the first transition whose source matches
            the current configuration and whose condition matches the
            metric is the one consulted *)
    s_guard : guard_spec option;
  }

  val cond : ?hi:int -> int -> cond
  (** [cond lo ?hi] builds a condition; omitted [hi] = unbounded. *)

  val matches : cond -> int -> bool

  val reachable : next:(int -> int list) -> int -> int list
  (** [reachable ~next init]: the closure of [init] under the step
      function [next], ascending — the configuration values a
      step-rule policy can reach, for building its [s_configs]. *)

  val config_name : t -> int -> string
  (** Display name of the configuration with this value (the value
      itself, as a string, when unknown). *)

  val find_config : t -> int -> config option

  val validate : t -> string list
  (** Structural well-formedness errors: duplicate or unsorted
      configuration values, unknown initial/source/target/fallback
      configurations, empty conditions, non-positive repeat counts,
      self-targeting transitions, inverted clamps. Empty = well
      formed. The behavioral checks (thrash, dead configs, threshold
      faults...) live in [Analysis.Policy_check]. *)

  val compile :
    read:(unit -> int) ->
    apply:(int -> bool) ->
    metric:('obs -> int) ->
    t ->
    'obs ->
    decision
  (** The executable form of a spec. [read] reports the current
      configuration (by value), [apply] performs a reconfiguration to
      the given value and reports whether it took effect, [metric]
      extracts the observed scalar. Semantics, in observation order:
      hysteresis counters reset whenever the configuration changed
      since the previous observation; with a guard, the raw metric is
      clamped and a streak of [g_limit] clamped samples fires the
      fallback (then suspends counting for [g_cooldown] samples)
      instead of consulting the transitions; otherwise the
      first enabled transition advances its counter (all others
      reset) and fires once the counter reaches [t_repeats] — the
      counter itself resets only when the fired apply reports
      success, so a no-op apply retries at the next enabled sample.
      Each compiled policy owns its guard state, a {!Guard.t} built
      from [g_limit] and [g_cooldown]. *)
end
