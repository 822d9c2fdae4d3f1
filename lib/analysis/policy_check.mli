(** Static model checker for adaptation-policy specs.

    Every shipped adaptive object reifies its policy as an
    {!Adaptive_core.Policy.Spec} (the same data its runtime policy
    steps), so this checker can verify adaptation behaviour
    without running the simulator. It explores the policy's own step,
    {!Adaptive_core.Policy.Spec.step}: the observed metric axis is cut
    at every declared threshold into finitely many {e regions}, inside
    which each condition keeps one truth value, and one representative
    per region (plus, for a guarded spec, one sample outside the
    clamp) is an input. A node is the attribute's value and the
    step's state (hysteresis counter, guard streak and cooldown); from
    the initial node every input is stepped, and each fire has two
    outcomes, apply succeeded or failed. The checks, as queries over
    that graph or over the spec's intervals:

    - {b thrash-cycle}: a cycle under one held input, every apply
      succeeding, that changes the configuration — the policy adapts
      forever while the workload does not change at all;
    - {b dead-config}: a configuration no reached node holds;
    - {b threshold-overlap}: an up- and a down-transition from the
      same configuration enabled by overlapping metric values, or a
      transition out of a reached configuration whose fire edge is
      never taken (shadowed by higher-priority ones);
    - {b threshold-inverted}: up/down conditions on the wrong sides of
      each other for the spec's declared {!Adaptive_core.Policy.Spec.monotone}
      polarity;
    - {b hysteresis-dead}: a [t_repeats > 1] transition whose fire
      edge is never taken — its counter can never advance because
      every enabling sample is claimed by a higher-priority
      transition;
    - {b guardrail-gap}: a transition condition lying
      entirely outside the guard's metric clamp, or a fallback
      configuration that no transition fires out of;
    - {b impl-clamped-out} (implementation ladders,
      [s_kind = "lock-impl"] only): an implementation the unguarded
      ladder's graph reaches and the guarded one's does not — the
      configuration stays declared but no observable metric can ever
      earn it;
    - {b swap-no-hysteresis} (implementation ladders only): a swap
      transition firing after a single enabling sample
      ([t_repeats < 2]) — an implementation swap runs a full
      freeze-kick-drain quiescence window, so a hysteresis-free ladder
      thrashes through swap windows on metric blips;
    - {b cross-object-conflict}: two specs naming the same
      [s_attribute] whose product of steps over the shared value, each
      held at one input and either sampling next, cycles through
      configuration-changing moves of both while both metrics stay put
      (each policy stable alone, unstable together);
    - {b malformed-spec}: structural errors from
      {!Adaptive_core.Policy.Spec.validate} (these suppress the
      behavioural checks for that spec).

    A thrash or conflict finding's [f_configs] is one closed walk of
    the cycle, in order, and its [f_region] names the held inputs.
    Soundness caveats mirror the IR's: one scalar metric per spec,
    regions assume the metric can hold any value indefinitely (the
    checker over-approximates reachable metric sequences, so a
    reported thrash cycle needs a workload that actually parks the
    metric in the region), and externally forced off-spec attribute
    values are outside the model (the running policy goes inert
    there). *)

type finding = {
  f_kind : string;  (** one of the kind strings above *)
  f_spec : string;  (** spec name, or ["a + b"] for conflict findings *)
  f_configs : string list;  (** configurations involved, display names *)
  f_region : string option;  (** metric region, when the finding has one *)
  f_message : string;
}

val shipped : unit -> Adaptive_core.Policy.Spec.t list
(** The specs of every shipped adaptive object's default policy:
    adaptive lock, the switch-lock
    implementation ladder, rw-lock preference,
    barrier/condition/semaphore. Pure data — needs no simulation. *)

type spec_report = {
  sr_name : string;
  sr_kind : string;
  sr_attribute : string;
  sr_metric : string;
  sr_configs : int;
  sr_transitions : int;
  sr_findings : finding list;
}

val run :
  ?domains:int ->
  Adaptive_core.Policy.Spec.t list ->
  spec_report list * finding list
(** Check every spec and every unordered pair, fanning out across host
    cores via {!Engine.Runner.map} (input-order-preserving, so the
    result — and any JSON rendered from it — is byte-identical at any
    [domains]). Returns per-spec reports in input order plus the
    cross-object conflict findings (only specs naming the same
    [s_attribute] can conflict). *)

val clean : spec_report list * finding list -> bool

type fixture_outcome = {
  x_name : string;
  x_expected : string list;  (** finding kinds the fixture must trigger *)
  x_found : string list;  (** kinds actually found (sorted, deduped) *)
  x_missing : string list;  (** expected kinds not found — should be [[]] *)
  x_findings : finding list;
}

val check_fixture :
  name:string ->
  expect:string list ->
  Adaptive_core.Policy.Spec.t list ->
  fixture_outcome
(** Run the checker over a seeded-bad fixture (one spec, or a pair for
    conflict fixtures) and compare the finding kinds against the
    expectation. *)

val to_json :
  shipped:spec_report list * finding list ->
  fixtures:fixture_outcome list ->
  string
(** Deterministic rendering — the payload of [POLICY_results.json]. *)
