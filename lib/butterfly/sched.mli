(** The discrete-event scheduler: runs effect-handled fibers over the
    simulated machine in deterministic virtual time.

    One [t] value is one machine instance. {!run} starts a main thread
    on processor 0 and drives the event loop until every thread has
    finished (or a deadlock / event-limit abort). The dispatch rule
    always picks the processor whose next runnable thread has the
    smallest virtual timestamp, so memory operations linearize in
    virtual-time order across the whole machine and runs are
    bit-for-bit reproducible.

    A [t] is single-use: create a fresh machine per experiment. *)

type t

exception Deadlock of string
(** No thread is runnable but blocked/joining threads remain. The
    payload lists them, each with its last blocking site (the lock it
    last requested) and the locks it still holds, whenever lock
    annotations were flowing during the run (i.e. at least one
    annotation subscriber — see {!add_annot_hook}). *)

exception Event_limit_exceeded
(** The configured [max_events] safety valve fired. *)

exception Thread_crash of string * exn
(** A simulated thread raised; payload is the thread name and the
    original exception. *)

exception Abort_requested of string
(** A host-side observer (typically the {!request_abort} watchdog
    path) asked the run to stop; the payload is its reason. *)

val create : Config.t -> t

exception Main_not_returned
(** Every thread finished but the main thread never returned: it was
    killed by a host-side {!kill_thread}. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t main] executes [main] as the first thread (named ["main"],
    on processor 0) and returns what [main] returned, once all
    simulated threads have terminated, including threads forked by
    [main] that outlive it ({!final_time} covers them). Raises
    [Invalid_argument] if this machine already ran, and
    {!Main_not_returned} if main was killed. Before the first dispatch,
    every {!at_run_start} hook fires on the calling domain. *)

val at_run_start : (unit -> unit) -> unit
(** Register a host-side hook fired at the start of every {!run}, on
    the domain about to run the machine — how libraries above the
    machine reset per-domain state keyed to "the current simulation"
    (the adaptive-object registry uses it to drop entries from earlier
    runs). Intended to be called once at module-initialisation time;
    hooks fire in registration order and are never removed. *)

(** {1 Structured run outcomes}

    [run] aborts by exception ({!Deadlock}, {!Event_limit_exceeded},
    {!Thread_crash}, {!Abort_requested}). {!run_outcome} is the
    recovery-oriented entry point: the same run, but every abort is
    caught and returned as a structured {!outcome} carrying the reason
    and a full deterministic diagnostic dump of the machine. *)

type abort_reason =
  | Deadlocked of string  (** the {!Deadlock} payload *)
  | Event_limit
  | Crashed of string * exn  (** thread name and original exception *)
  | Stop_requested of string  (** {!request_abort} reason (watchdog) *)

type outcome = Completed | Aborted of { reason : abort_reason; diagnostics : string }

val abort_reason_message : abort_reason -> string
(** One-line human-readable rendering of the reason. *)

val run_outcome : t -> (unit -> unit) -> outcome
(** Like {!run}, but never lets a scheduler abort escape as an
    exception: the machine's state at the moment of the abort is
    rendered as a deterministic dump (virtual time, per-processor
    clocks and queues, one line per thread) and returned alongside
    the reason. A run whose main thread was killed is [Completed] once
    every other thread has finished. *)

(** {1 Fault-injection entry points}

    Host-side hooks used by the fault injector ([lib/faults]) and the
    watchdog ([lib/monitoring]). None of them may be called from
    simulated code. A machine with no timers, penalties or abort
    requests behaves bit-for-bit like a fault-free one. *)

val add_timer : t -> at:int -> (unit -> unit) -> unit
(** Schedule a host-side callback at virtual time [at]. The callback
    runs between dispatches, before the machine's virtual time first
    reaches [at]; callbacks fire in (time, insertion) order and may
    mutate the machine (stall processors, kill threads, degrade memory
    modules) or re-arm further timers. Timers still pending when the
    last thread finishes are discarded — the run's final clocks are
    those of the workload, never of unreached faults. *)

val pending_timers : t -> int

val request_abort : t -> string -> unit
(** Ask the run loop to stop before its next dispatch. [run] raises
    {!Abort_requested}; {!run_outcome} returns [Aborted] with reason
    [Stop_requested]. The first request wins; later ones are ignored. *)

val abort_requested : t -> string option

val stall_processor : t -> proc:int -> ns:int -> unit
(** Advance a processor's clock by [ns] without running anything: the
    processor is offline for that window of virtual time. *)

val penalize_thread : t -> tid:int -> ns:int -> bool
(** Charge [ns] of stall to a thread at its next dispatch (the
    lock-holder-delay fault). Returns [false] when the thread is
    unknown or already finished. *)

val kill_thread : t -> tid:int -> at:int -> bool
(** Crash a thread at virtual time [at]: its suspended computation is
    discarded (no cleanup runs), joiners are woken as for a normal
    termination, and any locks it holds stay held. Returns [false]
    when the thread is unknown or already finished (the kill is then a
    no-op, which keeps seeded fault plans safe to apply blindly). *)

val machine_time : t -> int
(** Max over all processor clocks right now (host-side; valid during
    and after the run — unlike {!final_time}, which is the completed
    run's last event time). *)

val config : t -> Config.t
val memory : t -> Memory.t

val counters : t -> Engine.Counters.t
(** Machine-level event counters: ["mem.read"], ["mem.write"],
    ["mem.atomic"], ["sched.switches"], ["sched.blocks"],
    ["sched.wakeups"], ["sched.forks"], ["sched.events"], ... *)

val final_time : t -> int
(** Virtual time at which the last event executed (valid after
    {!run}). *)

val events_executed : t -> int
(** Simulated events executed by this machine so far: dispatches plus
    fast-path operations, i.e. exactly the count the ["sched.events"]
    counter reports and [max_events] bounds. Valid during and after the
    run. *)

(** {1 Performance switches}

    Two purely-mechanical switches over how the scheduler executes —
    never over what it computes. Toggling either must not change any
    simulated outcome (final times, counters, schedules, diagnostics);
    the determinism test suite asserts exactly that. Both default on. *)

val set_fast_paths : bool -> unit
(** Allow dispatch slices to charge operations directly on flat
    machine state instead of performing an effect per operation. A
    slice is eligible when the default pick decides every dispatch (no
    schedule control or chooser, no pending abort), and an operation
    qualifies when it completes before the slice's lookahead limit:
    the earliest of the next time another processor would be
    dispatched, the next fault timer and the quantum boundary.
    Subscribers see the same streams either way, except that counter
    cells read from inside a slice lag its direct charges: they are
    folded at slice end. Global (all machines, all domains). *)

val set_op_fusion : bool -> unit
(** Allow the fused [Ops] wrappers ([Ops.lock_probe],
    [Ops.read_hint]) to encode a spin iteration as a single staged
    effect instead of one effect per component. Global. *)

val domain_events_total : unit -> int
(** Cumulative {!events_executed} over every run completed on the
    calling domain (including aborted ones). Benchmarks measure the
    delta around a body to turn wall-clock ns-per-run into simulated
    events per second. *)

val processor_busy_ns : t -> int array
(** Per-processor busy time (cpu actually consumed by threads),
    valid after {!run}. *)

val runq_length : t -> int -> int
(** Number of runnable threads currently queued on a processor (used
    by advisory waiting policies and monitors). *)

val live_threads : t -> int

val add_trace_hook : t -> (time:int -> tid:int -> string -> unit) -> unit
(** Subscribe a sink for {!Ops.trace} messages. Like every other
    stream on the machine this is a bus: all subscribed sinks see
    every message, in subscription order. *)

val clear_trace_hooks : t -> unit
val trace_hook_count : t -> int

(** {1 Structured scheduling events}

    A low-overhead instrumentation stream in the spirit of the paper's
    general-purpose thread monitor: when a hook is installed, the
    scheduler emits one event per scheduling action. With no hook
    installed the cost is a single branch.

    Each stream is a {e bus}: any number of observers may subscribe
    with the [add_*_hook] functions and every one of them sees every
    emission, in subscription order — an event recorder and the
    sanitizers of [lib/analysis] can watch the same run concurrently. *)

type event_kind =
  | Ev_fork  (** thread created ([tid] is the child, [other] the parent) *)
  | Ev_switch  (** processor switched to a different thread *)
  | Ev_preempt  (** quantum expired; thread demoted behind its queue *)
  | Ev_block  (** thread went to sleep *)
  | Ev_wakeup  (** blocked thread made runnable again ([other] is the waker) *)
  | Ev_token  (** wakeup of a thread that was not blocked: a wake token
                  was granted ([tid] the target, [other] the waker) *)
  | Ev_token_use  (** a block absorbed a pending wake token and returned
                      immediately ([other] is the original waker) *)
  | Ev_join  (** a joiner resumed because its target finished ([tid] the
                 joiner, [other] the finished thread) *)
  | Ev_finish  (** thread terminated *)

val event_kind_name : event_kind -> string

type event = {
  time : int;
  proc : int;
  tid : int;
  kind : event_kind;
  other : int;  (** the related thread of the event kind, or -1 *)
}

val add_event_hook : t -> (event -> unit) -> unit
(** Subscribe an observer to the scheduling-event bus. Hooks run in
    subscription order; all subscribers see every event. Must be
    called before {!run}. *)

val clear_event_hooks : t -> unit
(** Remove every subscriber, restoring the zero-cost emission path. *)

val event_hook_count : t -> int
(** Number of currently subscribed event observers. The emission fast
    path is taken exactly when this is 0. *)

(** {1 Memory-access events}

    One event per simulated memory operation ([Ops.read]/[write] and
    the atomics), emitted at the operation's start time in the global
    deterministic execution order. With no hook subscribed the cost is
    one branch per access. *)

type access = {
  access_time : int;
  access_proc : int;
  access_tid : int;
  access_addr : Memory.addr;
  access_kind : Memory.access;
}

val add_access_hook : t -> (access -> unit) -> unit
(** Subscribe an access observer. It must only observe: on a fast
    slice the access is already booked when the hook runs, so a hook
    that mutated the machine would act after the access instead of
    before it. *)

val clear_access_hooks : t -> unit
val access_hook_count : t -> int

(** {1 Annotation events}

    The delivery side of {!Ops.annotate}: synchronization libraries
    publish lock acquire/release spans and sync-word registrations;
    the scheduler stamps them with virtual time and the emitting
    thread. *)

type annot = {
  annot_time : int;
  annot_proc : int;
  annot_tid : int;
  annotation : Ops.annotation;
}

val add_annot_hook : t -> (annot -> unit) -> unit
(** Subscribe an annotation observer. {!run} publishes the presence of
    subscribers to {!Ops.annotations_enabled}, so with none installed
    {!Ops.annotate} skips payload construction and the effect
    entirely. *)

val clear_annot_hooks : t -> unit
val annot_hook_count : t -> int

val thread_report : t -> (int * string * int) list
(** [(tid, name, cpu_ns)] for every thread that ran, sorted by tid. *)

(** {1 Controlled scheduling}

    Host-side steering of the dispatch order, used by the predictive
    analysis pipeline ([lib/analysis]) to replay witness schedules and
    by the chaos harness to pin failing runs. Control never changes
    what a dispatched thread does — only which runnable thread each
    dispatch picks — so every controlled schedule is one the machine
    could have taken on its own, and a recorded schedule replays the
    run bit-for-bit regardless of host parallelism ([--domains]). *)

type choice = {
  choice_tid : int;
  choice_proc : int;  (** processor the thread would run on *)
  choice_key : int;  (** virtual time the dispatch would start at *)
}
(** One thread the machine could legally dispatch right now. A
    processor whose continuation slot is occupied contributes only that
    thread (non-preemptive execution); a vacant processor contributes
    its queued runnable threads. *)

val set_schedule_control : t -> int list -> unit
(** [set_schedule_control t decisions] pins the next
    [List.length decisions] dispatches: each element is the tid that
    dispatch must pick. Fault timers fire between decisions exactly as
    on the default path and consume no decision. A decision naming a
    thread that is not currently dispatchable abandons control (the
    default policy resumes) and marks the run {!control_diverged}.
    Once the list is exhausted, scheduling continues with the
    {!set_dispatch_chooser} hook if any, else the default policy. *)

val set_dispatch_chooser : t -> (choice array -> int) option -> unit
(** Install (or clear) a per-dispatch steering callback, consulted
    whenever the decision list is empty. It receives the current
    dispatch candidates sorted by tid and returns the tid to dispatch,
    or [-1] to defer to the default policy. Returning a tid that is
    not a candidate abandons the pick to the default policy and marks
    the run {!control_diverged}. *)

val set_record_schedule : t -> bool -> unit
(** Enable schedule recording: every dispatch (including the no-op
    consumption of a killed thread's stale queue entry) appends the
    dispatched tid to the log. Enabling resets any previous log. The
    log is a growable byte buffer of varint tids (one byte for tids
    below 128), so recording a long run costs about a byte a dispatch
    rather than a list cell. *)

val recorded_schedule : t -> int list
(** The recorded dispatch log, oldest first, decoded into a fresh list
    on each call (O(dispatches)). Feeding it to
    {!set_schedule_control} on a fresh machine running the same
    program replays the run bit-for-bit. *)

val control_diverged : t -> bool
(** Whether a schedule-control decision or chooser answer ever named a
    thread the machine could not dispatch (the run then fell back to
    default scheduling). A successful replay reports [false]. *)

val replay_faithful : t -> int list -> bool
(** [replay_faithful t schedule]: this run, given [schedule] by
    {!set_schedule_control} with recording on, replayed it exactly:
    its {!recorded_schedule} equals [schedule], control never
    diverged and every decision was consumed. *)
