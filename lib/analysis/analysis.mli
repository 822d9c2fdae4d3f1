(** Correctness tooling over the deterministic simulator.

    [check cfg program] runs [program] on a fresh machine built from
    [cfg] with all three sanitizers watching the run through the
    scheduler's hook buses, and returns their findings:

    - {!Race}: the data-race detector (Eraser locksets confirmed by a
      vector-clock happens-before pass);
    - {!Lock_order}: deadlock potential (cycles in the
      acquired-while-holding graph), found even on runs that happen
      not to deadlock;
    - {!Discipline}: lock-usage lint (unlock without holding, blocking
      while holding a spin-mode lock, lock held at thread exit).

    A run that crashes with {!Locks.Lock_core.Misuse} or
    {!Butterfly.Sched.Deadlock} is folded into the report rather than
    escaping. Because the simulator is deterministic, checking the
    same config and program twice yields bit-for-bit identical
    reports. *)

module Vclock = Vclock
module Diag = Diag
module Trace = Trace
module Race = Race
module Lock_order = Lock_order
module Discipline = Discipline
module Causality = Causality
module Predict = Predict
module Witness = Witness
module Policy_check = Policy_check
module Proto_check = Proto_check

type report = {
  diags : Diag.t list;  (** all findings, sorted by {!Diag.compare} *)
  events : int;  (** scheduling events observed *)
  accesses : int;  (** memory accesses observed *)
  aborted : string option;
      (** set when the run ended in [Misuse] or [Deadlock] instead of
          terminating normally *)
}

val sanitize : names:(int -> string) -> Trace.t -> Diag.t list
(** The three sanitizers over a recorded run, findings sorted by
    {!Diag.compare}: the one place the observed-trace passes run. *)

val check : Butterfly.Config.t -> (unit -> unit) -> report

val check_trace :
  Butterfly.Config.t -> (unit -> unit) -> report * Trace.t * (int -> string)
(** Like {!check} but also returns the recorded trace and the
    tid→name function, for passes that go beyond the built-in
    sanitizers (prediction, witness replay). *)

(** {1 Predictive analysis}

    The observed-trace sanitizers above report what the schedule that
    actually ran exposed. The predictive pipeline ({!Predict} over
    {!Causality}) additionally reports bugs reachable only in a
    {e reordering} of the run, and {!Witness} promotes each prediction
    to Confirmed by steering a re-execution into the predicted state
    and replaying it bit-for-bit. *)

type predicted = {
  finding : Predict.prediction;
  rule : string;  (** e.g. ["predicted-race"] *)
  description : string;
  witness : Witness.result option;  (** present when confirmation ran *)
}

type predictive = { observed : report; predictions : predicted list }

val check_predictive :
  ?confirm:bool -> Butterfly.Config.t -> (unit -> unit) -> predictive
(** [check_predictive cfg program] is {!check} plus the predictive
    pass over the same recorded trace. With [~confirm:true] (default
    false) each prediction is put through witness replay — [program]
    is re-executed under the controlled scheduler, so it must be
    re-runnable. Deterministic like {!check}. *)

val confirmed : predictive -> predicted list
(** The predictions whose witness replay confirmed them. *)

val races : report -> Diag.t list
val cycles : report -> Diag.t list
val lints : report -> Diag.t list

val clean : report -> bool
(** No diagnostics and a normal termination. *)

val summary : report -> string
(** One-line counts. *)

val pp : Format.formatter -> report -> unit
(** The summary line followed by one line per diagnostic. *)
