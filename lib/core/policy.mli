(** Adaptation policies.

    The user-provided component of an adaptive object is a declarative
    {!Spec.t}: a finite automaton over named configurations, driven by
    threshold regions of one observed metric. {!Spec.step} is its pure
    transition function, and the only policy semantics: the feedback
    loop ([Adaptive]) calls it once per observation, and the static
    checker ([Analysis.Policy_check]) explores the same function, so
    the policy that runs is the policy it checked. A fired step carries
    the reconfiguration target (the paper's Psi operation) together
    with its declared {!Cost.t}, which the feedback loop charges at the
    object's home node when applying it. *)

(** Declarative adaptation-policy IR.

    A {!Spec.t} reifies what an adaptation policy {e is} — a finite
    automaton over named configurations, driven by threshold regions of
    one observed metric, with per-transition hysteresis counters and an
    optional guardrail — so that tools can inspect it. {!Spec.step} is
    the policy's one sample, with every bit of memory (counters, the
    guard's streak and cooldown) in an explicit {!Spec.state}. The
    static checker ([Analysis.Policy_check]) explores the finite
    product of that state for thrash cycles, dead configurations,
    threshold faults, guardrail gaps and cross-object conflicts without
    running the simulator; [Adaptive] holds one state per object and
    calls [step] per observation, so the runtime policy and the checked
    artifact cannot drift apart.

    Limits of the abstraction (soundness caveats): the metric is one
    scalar per observation; conditions are inclusive intervals on it;
    configurations are a finite set identified by an integer value
    (the attribute setting). A configuration reached only by mutating
    the attribute externally to a value outside [s_configs] puts the
    running policy into an inert state: no transition fires until the
    value returns to a known configuration (a guard's fallback still
    can). *)
module Spec : sig
  type cond = { lo : int; hi : int option }
      (** metric in [\[lo, hi\]], inclusive; [hi = None] means
          unbounded above. *)

  type config = { c_name : string; c_value : int }
      (** A configuration: [c_value] is the attribute setting (unique
          within a spec, used as the configuration's identity),
          [c_name] the display name. *)

  type transition = {
    t_from : int;  (** source configuration, by [c_value] *)
    t_cond : cond;  (** metric region that enables the transition *)
    t_target : int;  (** target configuration, by [c_value] *)
    t_label : string;
        (** reconfiguration label for logs/annotations; must be
            non-empty *)
    t_repeats : int;
        (** consecutive enabled samples required before firing
            (the AdaptiveMHA-style [neededRepeats]; 1 = immediate) *)
    t_cost : Cost.t;  (** charged per applied reconfiguration *)
  }

  type guard_spec = {
    g_clamp_lo : int;
    g_clamp_hi : int;
        (** a sample outside [\[lo, hi\]] is pathological: it feeds
            only the guard and matches no transition *)
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
      configurations, empty conditions, empty transition labels,
      non-positive repeat counts, self-targeting transitions, inverted
      clamps. Empty = well formed. The behavioral checks (thrash, dead configs, threshold
      faults...) live in [Analysis.Policy_check]. *)

  type state = {
    last : int option;  (** configuration at the previous sample *)
    live : (int * int) option;
        (** the one hysteresis counter that can be nonzero, as
            (transition index, consecutive enabled samples): a sample
            advances at most one counter and resets the others. Capped
            at the transition's [t_repeats], which fires exactly when
            the uncapped count would. *)
    streak : int;  (** consecutive out-of-clamp samples *)
    cooldown : int;  (** samples left with the streak's counting suspended *)
  }
  (** Everything a policy remembers between samples. Plain data, so
      states compare and hash structurally, and finitely many are
      reachable for a given spec. *)

  type action =
    | Stay
    | Fire of {
        target : int;  (** configuration to move to, by value *)
        label : string;
        cost : Cost.t;
        on_fail : state;  (** the state to adopt if the apply fails *)
        transition : int option;
            (** index in [s_transitions] of the transition that fired;
                [None] for the guard's fallback *)
      }

  val fresh : state
  (** The state of a policy that has seen no sample. *)

  val step : t -> state -> metric:int -> cur:int -> state * action
  (** One sample of the policy, pure: [metric] is the observed scalar,
      [cur] the attribute's current value. Semantics, in order: the
      hysteresis counter resets when [cur] differs from the previous
      sample's configuration. With a guard, a [metric] outside
      [\[g_clamp_lo, g_clamp_hi\]] is pathological; a streak of
      [g_limit] of them fires the fallback, then [g_cooldown] samples
      go uncounted, and a pathological sample never matches a
      transition. Otherwise the first transition out of [cur] whose
      condition holds advances its counter (all others reset) and
      fires once the counter reaches [t_repeats]; a sample that
      enables none resets the counter. The returned state assumes the
      fire's apply succeeds: the counter is spent, or the guard's
      cooldown runs. [on_fail] keeps the counter full, so the next
      enabled sample retries at once, or sets the streak one short of
      the limit with no cooldown, so the next pathological sample
      re-orders the fallback. A [cur] outside [s_configs] enables no
      transition. *)

  val check_log : t -> (int * string) list -> (unit, string) result
  (** Replay a recorded adaptation log ((virtual time, label), oldest
      first — the [Registry.stats] log) as a Ψ chain from the spec's
      initial configuration: each label must resolve to a declared
      transition out of the current configuration (first match in
      priority order), or to the guardrail fallback from any
      configuration, and the entries must be in time order. [Error]
      pinpoints the first label with no declared transition or, when
      every label resolves, the first entry out of time order. *)
end
