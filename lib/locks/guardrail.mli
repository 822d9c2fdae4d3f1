(** Adaptation-policy guardrail parameters: clamp, wedge detection,
    fallback.

    The paper's [simple-adapt] trusts its observations of the
    waiting-thread count. Under fault injection (stuck memory modules,
    killed lock holders, delayed owners) those observations can turn
    pathological, and the policy's positive feedback can wedge the lock
    at the pure-blocking extreme: blocking is slow, so waiters pile up,
    so every sample says "block more". Self-managing-systems work
    (Motuzenko cs/0307035; Adjusted Objects arXiv:2504.19495) makes the
    same point: adaptation must stay stable under perturbed inputs.

    A guardrail is a spec's [s_guard] ([Adaptive_core.Policy.Spec]),
    which [Spec.compile] runs on each observation before the
    transitions see it:

    - {b clamp} — raw samples outside [\[0, clamp_max\]] are clamped
      (a perturbed sensor cannot inject an absurd magnitude), and the
      clamping itself counts as a pathological sample;
    - {b wedge detection} — a sample that would hold the budget at the
      pure-blocking extreme (budget 0, waiting above threshold) is
      pathological;
    - {b fallback} — after [pathological_limit] consecutive
      pathological samples the guardrail orders a reset to the default
      combined configuration (charged as one waiting-policy
      reconfiguration, Table 8), then suspends pathology counting for
      [cooldown] samples so the fallback cannot immediately re-trigger
      (hysteresis).

    The implementation ladder ([Lock_core.create ~impl:Ladder]) runs
    one with its own parameters, and
    {!Adaptive_lock.policy_spec}'s [?guardrail] builds the guardrailed
    [simple-adapt] spec that the static policy checker inspects; the
    adaptive lock itself runs unguarded. This module holds the
    lock-flavoured parameters and maps them onto a spec's guard
    ({!spec}); the streak/cooldown state machine is
    [Adaptive_core.Policy.Guard]. *)

type params = {
  clamp_max : int;  (** samples clamped into [0, clamp_max] *)
  pathological_limit : int;  (** consecutive pathological samples before fallback *)
  cooldown : int;  (** samples with pathology counting suspended after a fallback *)
}

val default_params : params
(** clamp_max 64, pathological_limit 4, cooldown 8. *)

val spec :
  params ->
  wedge:Adaptive_core.Policy.Spec.wedge option ->
  fallback:int ->
  label:string ->
  cost:Adaptive_core.Cost.t ->
  Adaptive_core.Policy.Spec.guard_spec
(** The spec's guard for [params]: samples clamped into
    [\[0, clamp_max\]], the given wedge, and after a pathological
    streak a fallback to the configuration valued [fallback], labelled
    [label] and charged [cost]. *)

val create : ?params:params -> unit -> Adaptive_core.Policy.Guard.t
(** The streak/cooldown state for [params], to share with the compiled
    spec (its [?guard_state]) so the owner can read streaks and
    fallbacks. Raises [Invalid_argument] on a negative [clamp_max] or
    cooldown, or a non-positive limit. *)
