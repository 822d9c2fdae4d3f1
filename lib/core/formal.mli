(** The paper's formal characterization of configurable objects (§3.1).

    An object's state is [SV = IV ∪ CV]: internal variables plus the
    mutable attributes. The attribute instances form the policy set Φ,
    the method implementations the set Γ, and the configuration space
    is [C = Γ × Φ]. Three operation kinds act on it:

    - Υ (state transition) touches only [IV],
    - Ψ (reconfiguration) moves between configurations,
    - I (initialization) resets everything,

    each with a cost [t = n1 R n2 W] ({!Cost.t}).

    This module gives those notions a concrete, checkable form: declare
    a configuration space, then validate that an adaptive object's
    reconfiguration log stays inside it and only takes allowed edges.
    The test suite uses it to check the adaptive lock's [simple-adapt]
    trajectories against the waiting-policy space of §5.1. *)

type config = {
  gamma : string;  (** method-implementation family, e.g. ["combined"] *)
}

val config : string -> config
(** [config g] is the configuration with family [g]. *)

type transition = { at : int; from_ : config; to_ : config; cost : Cost.t }
(** One applied Ψ, timestamped in virtual ns. *)

type space

val space : configs:config list -> edges:(string * string) list -> space
(** Declare the configuration space. [edges] lists the (from-gamma,
    to-gamma) pairs Ψ may take. Raises [Invalid_argument] on duplicate
    member configurations. *)

val mem : space -> config -> bool

val validate : space -> initial:config -> transition list -> (unit, string) result
(** Check a Ψ log: the chain must start at [initial], be contiguous
    (each [from_] equals the previous [to_]), be time-ordered, and use
    only member configurations and allowed edges. Returns a
    human-readable reason on failure. *)

val total_cost : transition list -> Cost.t
(** Costs of composite reconfigurations add (§3.1). *)

val check_log : Policy.Spec.t -> (int * string) list -> (unit, string) result
(** Replay a recorded adaptation log ((virtual time, label), oldest
    first — the {!Registry.stats} log) as a Ψ chain from the spec's
    initial configuration: each label must resolve to a declared
    transition out of the current configuration (first match in
    priority order), or to the guardrail fallback from any
    configuration, and the entries must be in time order. [Error]
    pinpoints the first label with no declared transition or, when
    every label resolves, the first entry out of time order. *)
