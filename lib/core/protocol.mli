(** Small-step protocol IR and explicit-state semantics.

    [Spec] declares a concurrent protocol as a fixed cast of roles
    (holder/swapper, waiters of various flavors, a monitor), a set of
    named shared words, and guarded atomic transition rules — each
    rule is one role reading/writing shared words, parking, unparking
    a peer, or finishing, all within a single atomic step (the real
    protocols make compound sections atomic with a host-side guard
    lock; a rule models one such guarded section). Crash transitions
    for crashable roles and a small abstract clock (for drain
    deadlines and [swap_grace_ns]-style age-out) are generated by the
    semantics, not declared per rule.

    [compile] checks the spec's names, fixes the layout of a flat
    state and indexes each role's rules by the pc they fire from;
    [init]/[iter_successors] give the explicit-state transition
    relation that [Analysis.Proto_check] explores, naming each
    transition by an int edge code that {!edge} resolves. Everything
    here is deterministic: successor order is declaration order, so
    state counts, counterexamples and JSON built from them are stable
    bytes on any host or [--domains] count. *)

module Spec : sig
  type flavor = Holder | Swapper | Spinning | Queued | Sleeping | Timed | Monitor
      (** Display/metadata flavor of a role; behavior comes solely
          from the rules that mention the role. *)

  type role = {
    r_name : string;
    r_flavor : flavor;
    r_crashable : bool;  (** may take a generated crash transition *)
    r_locals : (string * int) list;  (** private registers, initial values *)
  }

  (** Integer expressions, evaluated against the acting role. *)
  type expr =
    | K of int  (** constant *)
    | S of string  (** shared word *)
    | L of string  (** acting role's local register *)
    | Me  (** acting role's id, 1-based *)
    | Clock  (** abstract clock, [0 .. p_clock_max] *)
    | Status of string  (** named role's status code: 0 running, 1 parked, 2 crashed, 3 done *)
    | Add of expr * expr
    | Sub of expr * expr

  type cmp = Eq | Ne | Lt | Le | Gt | Ge

  type guard =
    | T
    | C of cmp * expr * expr
    | All of guard list
    | Any of guard list
    | Not of guard

  (** Atomic actions, applied in order; later actions observe earlier
      writes within the same rule (sequential semantics inside one
      atomic step). *)
  type act =
    | Read of string * string  (** local := shared *)
    | Write of string * expr  (** shared := e *)
    | Set of string * expr  (** local := e *)
    | If of guard * act list * act list
    | Unpark of string
        (** wake the named role: a parked role resumes; a running role
            gets a sticky wake token consumed by its next park (the
            mailbox-flag idiom — wakeups are never lost) *)

  type rule = {
    u_role : string;
    u_from : int;  (** program counter this rule fires from *)
    u_label : string;
    u_guard : guard;
    u_acts : act list;
    u_to : int;  (** program counter after the step *)
    u_park : bool;  (** park after the acts (unless a sticky wake is pending) *)
    u_done : bool;  (** role terminates after the acts *)
    u_timeout : bool;  (** models a deadline/age-out edge (metadata) *)
  }

  val rule :
    role:string ->
    from_:int ->
    ?park:bool ->
    ?done_:bool ->
    ?timeout:bool ->
    ?guard:guard ->
    ?acts:act list ->
    label:string ->
    int ->
    rule
  (** [rule ~role ~from_ ~label to_] with optional guard/acts/flags. *)

  val cas : string -> expect:expr -> set:expr -> guard * act
  (** Compare-and-swap on a shared word, as a guard/act pair to embed
      in a rule (the failing branch is simply the rule not firing). *)

  type t = {
    p_name : string;
    p_shared : (string * int) list;  (** shared words, initial values *)
    p_roles : role list;
    p_rules : rule list;
    p_crash_budget : int;  (** total crash transitions allowed in a run *)
    p_clock_max : int;  (** abstract clock ticks from 0 to this bound *)
  }
end

type t
(** A compiled protocol. *)

exception Ill_formed of string

val compile : Spec.t -> t
(** Resolve every name and index the rules. @raise Ill_formed on an
    unknown role/word/register, duplicate names, an empty cast, or a
    rule firing from a negative pc. *)

val name : t -> string
val spec : t -> Spec.t
val role_names : t -> string list

(** {1 States} *)

type state = int array
(** One flat array whose layout is fixed at {!compile}:
    [[clk; cr; shared...; pcs...; statuses...; wake bits...; locals...]],
    shared words and roles in declaration order, each role's locals
    contiguous. Read it through {!slot} handles rather than by
    position.

    A state handed to a property predicate or to an
    {!iter_successors} callback is scratch: it is overwritten once the
    call returns, so read it (or [Array.copy] it) there and never keep
    it. *)

type status = Running | Parked | Crashed | Done

val init : t -> state
(** A fresh copy of the initial state. *)

val iter_successors : t -> state -> (int -> state -> unit) -> unit
(** [iter_successors t st f] calls [f code st'] once per enabled
    transition, in deterministic order: declared rules first, then
    generated ["crash"] transitions (role declaration order), then the
    clock ["tick"] (role [""]). The edge code numbers them in that
    order over the whole model: rule [i] of [p_rules] is code [i],
    the crash of role [r] is the rule count plus [r], and the tick
    follows the last crash. Only the rules of a running role's current
    pc are tested, merged by code, so the order is exactly a scan of
    every rule. Every [st'] is one scratch array owned by the iterator
    [iter_successors t] returns: apply it once per exploration to
    reuse that scratch for every state, and give each concurrent
    exploration its own. A state with no successors is terminal. *)

val edge : t -> int -> string * string
(** [edge t code] is the (role, label) of an edge code, built once at
    {!compile}: resolving one allocates nothing. *)

val successors : t -> state -> (string * string * state) list
(** {!iter_successors} as a list of (role, label, copied state). *)

(** {1 Slots} Handles resolved once per model, for predicates that run
    on every state. @raise Ill_formed on an unknown name. *)

type slot

val shared_slot : t -> string -> slot

val local_slot : t -> string -> string -> slot
(** [local_slot t role register]. *)

val pc_slot : t -> string -> slot
val status_slot : t -> string -> slot

val wake_slot : t -> string -> slot
(** Holds 1 while the role has a sticky wakeup pending. *)

val get : state -> slot -> int

val status_at : state -> slot -> status
(** Decode a {!status_slot}. *)

(** {1 Rendering} *)

val describe : t -> state -> string
(** One-line rendering of shared words and role positions, used in
    counterexample traces. *)

(** {1 Properties} *)

type property =
  | Safety of {
      q_name : string;
      q_desc : string;
      q_bad : t -> state -> string option;  (** [Some why] when the state is bad *)
    }
  | Step of {
      q_name : string;
      q_desc : string;
      q_bad : t -> role:string -> label:string -> state -> string option;
          (** judged on the pre-state of every transition *)
    }
  | Liveness of {
      q_name : string;
      q_desc : string;
      q_goal : t -> state -> bool;
          (** every reachable state must be able to reach a goal
              state; a reachable state from which no goal state is
              reachable is wedged *)
    }

val property_name : property -> string
val property_desc : property -> string
