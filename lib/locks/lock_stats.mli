(** Per-lock statistics and locking-pattern traces.

    Every lock in the family carries one of these. Besides counters
    (acquisitions, contended acquisitions, spins, blocks, handoffs,
    reconfigurations) it can record the {b locking pattern}: a time
    series of the number of waiting threads, sampled at every contended
    lock event — exactly the quantity plotted in the paper's Figures
    4–9. *)

type t

val create : ?trace:bool -> string -> t
(** [trace] (default false) enables the waiting-thread time series. *)

(** {1 Recording (used by lock implementations)} *)

val on_lock : t -> unit
val on_contended : t -> unit
val on_acquired : t -> wait_ns:int -> unit
val on_unlock : t -> unit
val on_spin_probe : t -> unit
val on_block : t -> unit
val on_handoff : t -> unit
val on_reconfigure : t -> unit

val on_timeout : t -> unit
(** A timed acquisition ({!Lock_core.lock_timeout}) gave up. *)

val record_waiting : t -> now:int -> waiting:int -> unit

(** {1 Reading} *)

val lock_calls : t -> int
val unlock_calls : t -> int
val contended : t -> int
val acquired : t -> int
val spin_probes : t -> int
val blocks : t -> int
val handoffs : t -> int
val reconfigurations : t -> int

val timeouts : t -> int
(** Timed acquisitions that expired without obtaining the lock. *)

val max_wait_ns : t -> int

val mean_wait_ns : t -> float
(** Mean waiting time over contended acquisitions (0 when none). *)

val contention_ratio : t -> float
(** Fraction of lock calls that found the lock held. *)

val trace : t -> Engine.Series.t option
(** The waiting-thread series, when tracing was enabled. *)

val wait_histogram : t -> Repro_stats.Histogram.t
(** Distribution of non-zero acquisition waits (log-bucketed), for
    percentile reporting in the harness. *)

val pp : Format.formatter -> t -> unit
