(** Adaptation-policy guardrails: clamp, wedge detection, fallback.

    The paper's [simple-adapt] trusts its observations of the
    waiting-thread count. Under fault injection (stuck memory modules,
    killed lock holders, delayed owners) those observations can turn
    pathological, and the policy's positive feedback can wedge the lock
    at the pure-blocking extreme: blocking is slow, so waiters pile up,
    so every sample says "block more". Self-managing-systems work
    (Motuzenko cs/0307035; Adjusted Objects arXiv:2504.19495) makes the
    same point: adaptation must stay stable under perturbed inputs.

    The guardrail filters each observation before the policy sees it:

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

    Guardrails are opt-in ({!Adaptive_lock.create}'s [?guardrail]):
    with none installed the adaptive lock behaves bit-for-bit as
    before.

    The streak/cooldown/fallback state machine itself is
    [Adaptive_core.Policy.Guard] — reusable by any adaptive object via
    the [Policy.guarded] combinator; this module is the lock-flavoured
    wrapper adding waiting-count clamping and wedge vocabulary. *)

type params = {
  clamp_max : int;  (** samples clamped into [0, clamp_max] *)
  pathological_limit : int;  (** consecutive pathological samples before fallback *)
  cooldown : int;  (** samples with pathology counting suspended after a fallback *)
}

val default_params : params
(** clamp_max 64, pathological_limit 4, cooldown 8. *)

type t

val create : ?params:params -> unit -> t

type verdict =
  | Sample of int  (** feed this (possibly clamped) sample to the policy *)
  | Fallback  (** reset to the default combined configuration instead *)

val observe : t -> waiting:int -> wedged_low:bool -> verdict
(** Filter one observation. [wedged_low] is the caller's statement
    that the budget currently sits at the pure-blocking extreme and
    this sample would keep it there. *)

val guard : t -> Adaptive_core.Policy.Guard.t
(** The underlying streak/cooldown state machine, for composing with
    [Policy.guarded] directly. *)

val streak : t -> int
(** Current consecutive pathological-sample count (for tests). *)

val fallbacks : t -> int
(** Fallbacks ordered so far. *)
