(** Per-domain registry of live adaptive objects.

    Every {!Adaptive.t} self-registers at creation, so monitors,
    experiments and the [repro objects] CLI can enumerate the whole
    thread package's adaptive objects — locks, barriers, conditions,
    semaphores, rw-locks — without each library exporting its own
    metrics plumbing.

    State is domain-local (the [Ops.annotations_flag] pattern): an
    [Engine.Runner] simulation runs wholly on one host domain, so
    concurrent simulations never see each other's objects, and
    snapshot order is the run's deterministic object-creation order —
    which is what makes registry JSON byte-identical at any
    [--domains] count. The registry resets itself at the start of
    every [Sched.run] (via [Sched.at_run_start]), so entries never
    leak from a finished run into the next one on the same domain;
    {!reset} remains available for host-side tests that register
    synthetic entries outside a run. *)

type stats = {
  samples : int;
  policy_runs : int;
  adaptations : int;
  total_cost : Cost.t;
  last_label : string option;
  log : (int * string) list;  (** (virtual time, label), oldest first *)
}
(** Typed metrics snapshot of one object's feedback loop. *)

type metrics = {
  id : int;
  stats : stats;
  spec : Policy.Spec.t;
      (** the declared adaptation-policy spec the object's loop runs —
          what {!validate_log} checks the recorded log against *)
}
(** [id] is the registration ordinal within the current run. *)

val reset : unit -> unit
(** Forget every registered object on the calling domain. Runs
    automatically at the start of every [Sched.run]. *)

val register : spec:Policy.Spec.t -> stats:(unit -> stats) -> unit
(** Register an object, named by its spec's [s_name] and [s_kind].
    [stats] is consulted lazily at snapshot time.
    Called by [Adaptive.create]; most clients never call this
    directly. *)

val snapshot : unit -> metrics list
(** Current metrics of every registered object, in registration
    order. *)

val validate_log : metrics -> (unit, string) result
(** {!Policy.Spec.check_log} of the object's recorded adaptation log
    against its declared spec's configuration space. Surfaced per
    object in {!to_json} as [policy_valid] / [policy_violation] — how
    [repro objects] reports protocol-level log violations. *)

val to_json : metrics list -> string
(** Deterministic JSON document (stable bytes across hosts and domain
    counts) with per-object metrics and aggregate counts. *)
