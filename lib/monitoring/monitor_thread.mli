(** The general-purpose thread monitor [GS93]: a local monitor thread
    on a dedicated processor that receives trace data from application
    threads, performs low-level processing, and forwards observations
    to a consumer (a central collector or an adaptation module).

    This is the {e loosely-coupled} alternative to the customized
    in-line lock monitor: records traverse a {!Ring_buffer}, the
    monitor polls, and each record pays the general monitor's
    processing cost ({!Locks.Lock_costs.monitor_sample_instrs}, the
    66 us of Table 8). The coupling ablation measures the resulting
    adaptation lag. *)

type 'a t
(** A monitor thread over a ring of (publish-time, value) records. *)

val start_timestamped :
  ?name:string ->
  ?poll_interval_ns:int ->
  proc:int ->
  ring:(int * 'a) Ring_buffer.t ->
  deliver:('a -> unit) ->
  unit ->
  (int * 'a) t
(** Fork the monitor thread pinned to [proc]. It drains the ring,
    charging the per-record processing cost, measuring each record's
    delivery lag (now - publish time) and handing its value to
    [deliver]; when the ring is empty it sleeps [poll_interval_ns]
    (default 100 us, the sampling granularity of the general
    monitor). *)

val stop : 'a t -> unit
(** Ask the monitor to finish: it drains remaining records and exits;
    [stop] joins it. Must be called before the simulation can
    terminate. *)

val max_lag_ns : 'a t -> int
(** Largest observed delivery lag. *)
