(** Witness replay: promote {!Predict} predictions to machine-checked
    findings.

    From a prediction's coordinates this module synthesizes a steering
    plan, re-executes the program under the controlled scheduler
    ({!Butterfly.Sched.set_dispatch_chooser}), and checks whether the
    predicted bug actually manifests:

    - a {e race} manifests when both predicted accesses are pending in
      the machine at the same instant (co-enabled by construction) and
      the independent observed-trace race detector flags the word on
      the witness trace;
    - a {e deadlock} or {e lost wakeup} manifests when, with the
      plan's threads lined up at their milestones and released, the
      machine itself aborts with {!Butterfly.Sched.Deadlock}.

    A manifested run's recorded dispatch log is then replayed on a
    fresh machine and must reproduce bit-for-bit (same dispatch
    sequence, same outcome, same final time, same trace length).
    Only then is the prediction {!Confirmed} — so the Confirmed set
    has zero false positives by construction. A plan that cannot be
    lined up (steering gives up, a milestone fires in the wrong state,
    the run ends first) yields {!Unconfirmed}, never a false claim. *)

type key = Trace.key

type milestone =
  | M_access of { m_tid : int; m_word : key; m_nth : int }
  | M_request of { m_tid : int; m_lock : key; m_nth : int }
  | M_block of { m_tid : int; m_nth : int }
      (** per-thread program-order coordinates, counted exactly as
          {!Predict} counts them *)

type plan = {
  p_holds : (milestone * key list) list;
      (** hold the thread when the milestone fires; it must then hold
          the listed locks *)
  p_waits : (milestone * key list) list;  (** must fire; no hold *)
  p_chase : milestone option;
      (** after all holds/waits: release the first held thread and
          manifest when this fires *)
  p_expect_deadlock : bool;
      (** manifestation is a machine deadlock after release *)
}

type outcome =
  | Completed
  | Deadlocked of string
  | Crashed of string
  | Limit  (** the [max_events] safety valve fired *)

type status = Confirmed | Unconfirmed

val status_name : status -> string

type result = {
  w_status : status;
  w_outcome : outcome;  (** how the witness run ended *)
  w_manifested : bool;  (** the plan's manifestation criterion held *)
  w_failure : string option;  (** why steering gave up, if it did *)
  w_schedule : int list;
      (** recorded dispatch log of the witness run; feeding it to
          {!Butterfly.Sched.set_schedule_control} replays the run
          bit-for-bit on any host parallelism *)
  w_replay_ok : bool;  (** the log replayed bit-for-bit *)
}

val confirm :
  Butterfly.Config.t -> (unit -> unit) -> Trace.t -> Predict.prediction -> result
(** [confirm cfg program trace p] synthesizes [p]'s plan against
    [trace] (the recorded run of [program] under [cfg]), runs the
    steered witness execution, and verifies the replay. [program] must
    be re-runnable (each call builds fresh state). The witness machine
    runs with an event budget of at least 4M events regardless of
    [cfg.max_events]. *)
