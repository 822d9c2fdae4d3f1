(** The sync-objects workload: one simulated program exercising every
    adaptive-object family — adaptive lock, rw-lock, barrier,
    condition, semaphore — so one [Core.Registry] snapshot shows the
    whole telemetry spine ([repro objects] runs exactly this). *)

type spec = {
  processors : int;
  workers : int;
  rounds : int;  (** barrier rounds in stage 1 *)
  items_each : int;  (** items consumed per consumer in stage 2 *)
  seed : int;
}

val default : spec

type result = {
  spec : spec;
  total_ns : int;
  snapshot : Adaptive_core.Registry.metrics list;
      (** registry snapshot taken inside the run, in object-creation
          order *)
  adaptations : int;  (** sum over the snapshot *)
}

val scenario : spec -> Butterfly.Config.t * (unit -> unit)
(** The machine {!run} uses and the program, results discarded, as an
    analysis/chaos scenario. *)

val run : spec -> result
