(** Protocol models for [Analysis.Proto_check].

    Three shipped protocols, modelled as [Protocol.Spec] state
    machines at the granularity of the implementation's guard-held
    sections (one guarded compound section = one atomic rule — the
    guard lock's whole job is making those sections atomic):

    - the {!Lock_core} implementation swap (freeze → kick/drain →
      commit-or-rollback), including abandoned-swap recovery after
      [swap_grace_ns] (the abstract clock: 0 = inside the drain
      window, 1 = past the drain deadline, 2 = past deadline+grace)
      and timed waiters that poll and age out instead of sleeping;
    - MCS queue handoff;
    - the policy guard's streak/cooldown/fallback machine (the
      [streak] and [cooldown] of [Policy.Spec.state]).

    Each model ships with its safety and liveness properties. The
    seeded-bad quiescence variants reintroduce historical bugs so the
    checker can prove it would have caught them. *)

module Protocol = Adaptive_core.Protocol

type waiter = Wsleep  (** untimed: parks while the blocking impl is current *)
            | Wtimed  (** deadline-bound: polls, never sleeps, ages out *)

type qbug =
  | Stolen_freeze_commit
      (** pre-fix PR 8 race: commit does not re-validate freeze
          ownership, so a swapper stalled past deadline+grace commits
          over the waiters' abandoned-swap recovery *)
  | Lost_sleeper  (** the kick drops sleeping waiters from the queue *)
  | Double_grant  (** the kick grants sleeping waiters while the swapper holds the lock *)
  | No_age_out  (** abandoned-swap recovery removed: a crashed swapper wedges the freeze *)

val quiescence :
  ?bug:qbug -> waiters:waiter list -> unit -> Protocol.t * Protocol.property list
(** The quiescence swap with one swapper (initially holding the lock)
    and the given waiters, crash budget 1. Properties: [mutex],
    [no-double-grant], [freeze-owned-commit], [no-lost-sleeper],
    [quiesce] (liveness). *)

val mcs : ?contenders:int -> unit -> Protocol.t * Protocol.property list
(** MCS queue handoff with [contenders] (default 3) competing roles.
    Properties: [mutex], [no-double-grant], [all-served] (liveness). *)

val guard : unit -> Protocol.t * Protocol.property list
(** The guard's fallback machine in [Policy.Spec.step], with limit 2
    and cooldown 2.
    Properties: [streak-bounded], [fallback-at-limit],
    [no-count-in-cooldown], [cooldown-terminates] (liveness). *)

val shipped : unit -> (Protocol.t * Protocol.property list) list
(** The three shipped protocols at their checked sizes (quiescence
    with two sleepers and a timed waiter; MCS with three contenders;
    the guard machine). All must verify clean. *)

val seeded_bad : unit -> (string * (Protocol.t * Protocol.property list) * string list) list
(** [(fixture name, model, property names that must be violated)] for
    the four historical-bug variants. *)
