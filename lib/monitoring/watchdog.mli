(** Stall watchdog: a simulated polling thread that turns silent hangs
    into structured aborts.

    The watchdog wakes every 200 µs of virtual time and
    fingerprints the machine's progress (per-thread cpu consumed by
    everyone but itself, total memory accesses, live-thread count).
    A poll counts as stale only when the fingerprint is unchanged
    {e and} no other thread is queued for a future dispatch — a
    sibling mid-[Ops.work] or mid-[Ops.delay] is pending progress, not
    a stall, even though its clock only moves at dispatch granularity.
    After 5 consecutive stale polls it calls
    {!Butterfly.Sched.request_abort}, so {!Butterfly.Sched.run_outcome}
    returns [Aborted] with reason [Stop_requested] and a full
    diagnostic dump instead of hanging or dying on an opaque
    exception.

    Note that a machine hosting a watchdog can never raise
    {!Butterfly.Sched.Deadlock} on its own — the watchdog thread is
    always runnable — which is exactly why the watchdog must detect
    the stall itself. Detection latency is bounded by 1 ms of virtual
    time. Spinning threads
    (a livelock behind a killed lock holder) are progress by this
    definition; bounding those is the event budget's job, not the
    watchdog's.

    The fingerprint is computed from deterministic simulator state
    only, so watchdog behaviour (including whether and when it fires)
    is bit-for-bit reproducible. *)

type t

val start : sched:Butterfly.Sched.t -> unit -> t
(** Fork the watchdog thread, named ["watchdog"], on processor 0 (must
    be called from inside the simulation, e.g. at the top of the main
    thread). *)

val stop : t -> unit
(** Ask the watchdog to exit and join it — call when the workload
    completed so the run can terminate cleanly. *)

val polls : t -> int
(** Polls performed so far. *)

val fired : t -> bool
(** Whether the watchdog requested an abort. *)

