(** Explicit-state model checker for [Protocol] specs.

    Bounded breadth-first exploration — no external tools. Visited
    states are stored packed, each as the zigzag varints of its
    {!Protocol.state} slots in one byte arena, and found through an
    open-addressing hash table whose 8-byte slots hold a hash tag and
    a state id; a state is copied into the arena only when it is new
    and decoded again when it is expanded. The rest of the graph —
    arena offsets, each state's predecessor and the
    {!Protocol.edge} code that reached it, the successor lists that
    liveness needs and their reverse — is kept as 4-byte entries in
    byte buffers ({!Ids}), which the GC never scans. One exploration
    judges all of a model's properties.
    Safety properties are judged on every reachable state (or
    transition, for [Step] properties) as it is discovered;
    liveness-as-absence-of-wedged-states needs the full exploration,
    then a backward reachability pass from the goal states: any
    reachable state that cannot reach a goal state is wedged, and the
    BFS path to the earliest such state is the counterexample.

    Everything is deterministic — exploration order is the spec's
    declaration order — so state counts, verdicts, counterexample
    traces and the JSON built from them are identical bytes at any
    [--domains] count. [check_all] fans one model per task over
    [Engine.Runner]. *)


module Protocol = Adaptive_core.Protocol
type counterexample = {
  x_steps : (string * string) list;  (** (role, label) from the initial state *)
  x_why : string;  (** what is wrong with the final state/step *)
  x_state : string;  (** [Protocol.describe] of the violating state *)
}

type verdict =
  | Holds
  | Violated of counterexample
  | Out_of_bounds  (** exploration hit [max_states] before an answer *)

type report = {
  r_model : string;
  r_property : string;
  r_desc : string;
  r_states : int;  (** reachable states explored *)
  r_edges : int;  (** transitions explored *)
  r_verdict : verdict;
}

val check_all :
  ?domains:int ->
  ?max_states:int ->
  ?only:string ->
  (Protocol.t * Protocol.property list) list ->
  report list
(** Check each model's properties, one [Engine.Runner.map] task per
    model, and concatenate the reports; [only] keeps just the models
    with that name. Output order is input order regardless of
    [domains].

    A model's properties are checked in one exploration; one report
    per property, in list order. A property resolves at its first
    violation, and its [r_states] and [r_edges] are the states
    discovered and transitions explored at that instant — what a pass
    checking that property alone would report, since discovery order
    does not depend on the properties. The exploration stops once
    every property has resolved. [max_states] (default 2_000_000,
    counting the initial state) bounds the seen-set: reaching it
    resolves every open property as [Out_of_bounds] with
    [r_states = max_states]. The properties still open when the graph
    is exhausted hold, or, for liveness, are judged by the backward
    pass. Raises [Invalid_argument] when [max_states < 1] or
    [max_states > 2^31], the number of ids an {!Ids} entry holds. *)

val clean : report list -> bool
(** No violation and nothing out of bounds. *)

(** The seen-set's state encoding: the slots' zigzag varints, end to
    end. One byte per slot of magnitude below 64, at most nine for any
    int; prefix-free, so distinct arrays pack to distinct bytes. *)
module Codec : sig
  val pack : int array -> string
  val unpack : string -> int -> int array
  (** [unpack (pack a) (Array.length a) = a]. *)
end

(** The graph's 4-byte vectors: a growable sequence of ints in
    [0, 2^31), four bytes each in a [Bytes.t]. A state id, an arena
    offset or an edge index that does not fit raises, never wraps. *)
module Ids : sig
  type t

  val create : unit -> t

  val push : t -> int -> unit
  (** @raise Invalid_argument unless [0 <= x < 2^31]. *)

  val length : t -> int

  val get : t -> int -> int
  (** The [i]th entry pushed, for [i < length]. *)
end

(** {1 Seeded-bad fixtures} *)

type fixture_report = {
  f_name : string;
  f_expect : string list;  (** property names that must be violated *)
  f_found : string list;  (** property names actually violated *)
  f_missing : string list;  (** expected but not violated — a checker bug *)
  f_unexpected : string list;  (** violated but not expected *)
  f_reports : report list;
}

val check_fixture :
  name:string ->
  expect:string list ->
  Protocol.t * Protocol.property list ->
  fixture_report

val fixtures_ok : fixture_report list -> bool
(** Every seeded-bad fixture produced exactly its expected
    violations: none missing and none unexpected. *)

(** {1 Model fidelity} *)

val replay : Protocol.t -> (string * string) list -> (unit, string) result
(** Drive the model along a recorded (role, label) sequence from the
    initial state; [Error] describes the first step the model cannot
    take — i.e. the point where the implementation's transition log
    diverges from the model. Real logs carry no clock events, so a
    step that is only enabled past a deadline is retried after
    stuttering through ["tick"] system transitions (bounded by the
    model's clock range). *)

val random_walk :
  Protocol.t -> seed:int -> steps:int -> (string * string) list * string option
(** Deterministic pseudo-random walk; returns the (role, label) trace
    and the first safety complaint found en route when given none —
    callers pass the trace back through {!replay} or assert on it. The
    walk stops early at terminal states. *)

val walk_violates :
  Protocol.t -> Protocol.property list -> seed:int -> steps:int -> string option
(** Random-walk the model asserting every [Safety]/[Step] property at
    each step; [Some why] on the first violation. *)

(** {1 Witness lowering} *)

type lowering = {
  l_fixture : string;  (** seeded-bad fixture the counterexample came from *)
  l_scenario : string;  (** analysis-suite scenario replayed in the simulator *)
  l_rule : string;  (** predictive rule expected to confirm *)
  l_confirmed : bool;  (** simulator manifested the predicted failure *)
  l_replay_ok : bool;  (** recorded schedule replayed bit-for-bit *)
  l_schedule_len : int;
}

(** {1 Report} *)

val to_json :
  shipped:report list ->
  fixtures:fixture_report list ->
  lowered:lowering list ->
  string
(** Deterministic JSON document (stable bytes at any domain count). *)
