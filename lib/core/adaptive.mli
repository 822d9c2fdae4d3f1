(** The adaptive-object feedback loop: monitor -> policy -> reconfigure.

    A [t] ties together a {!Sensor} (the built-in monitor module,
    reading one [int] metric), a user-provided {!Policy.Spec} (the
    adaptation policy, run here by {!Policy.Spec.step} on one
    {!Policy.Spec.state} per object) and the reconfiguration
    mechanism (the object's [apply], charged per the fired
    transition's declared {!Cost} at the object's home node). The loop
    is {b closely coupled}: {!tick} is called from within the object's
    own methods (e.g. every unlock), so a decision always acts on the
    current object state — the property §3 argues is needed to avoid
    adaptation lag. The {b loosely coupled} alternative feeds
    observations from an external monitoring thread through {!feed};
    the [Monitoring] library builds that variant and the coupling
    ablation compares the two.

    Every loop self-registers in the per-domain {!Registry} at
    creation, so the whole thread package's adaptive objects — locks,
    barriers, conditions, semaphores, rw-locks — are enumerable with
    one call. Each applied reconfiguration is published once, as an
    [Ops.A_adaptation] annotation: monitors, analysis and recorded
    traces observe it there, in its linearized position. *)

type t

val create :
  spec:Policy.Spec.t ->
  home:int ->
  sensor:Sensor.t ->
  read:(unit -> int) ->
  apply:(int -> bool) ->
  t
(** Must run inside a simulation: allocates the scratch word used to
    charge reconfiguration costs at [home]. The spec's [s_name] and
    [s_kind] name the object and its family (["lock"], ["barrier"],
    ...) in the registry and annotations. Each observation runs
    [Policy.Spec.step] with [read ()] as the current configuration;
    a fire charges its cost, then calls [apply] with the target
    configuration, which reports whether it took effect (on failure
    the policy adopts the fire's [on_fail] state). A spec without
    transitions gives a monitored object that never adapts. The new
    loop registers itself, with [spec], in {!Registry}, which checks
    the recorded adaptation log against the spec
    ({!Registry.validate_log}). *)

val tick : t -> bool
(** One instrumentation event (closely-coupled path). Runs the sensor
    at its sampling rate; when a sample is produced, runs the policy
    and applies (and charges) any reconfiguration. Returns [true] iff
    a reconfiguration was applied. *)

val feed : t -> int -> bool
(** Inject an observation directly (loosely-coupled path). Runs the
    policy on it, bypassing the sensor. *)

val samples : t -> int
(** Samples actually taken by the sensor via this loop. *)

val adaptations : t -> int
(** Reconfigurations applied. *)

val log : t -> (int * string) list
(** All applied reconfigurations as (virtual time, label), oldest
    first. *)
