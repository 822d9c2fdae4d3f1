(** Operations available to code running {e inside} the simulated
    machine.

    Each function performs an OCaml effect handled by the scheduler
    ({!Sched}): the calling fiber is suspended, virtual time is
    charged according to the machine {!Config}, and the fiber resumes
    when its operation completes in virtual time. Calling any of these
    outside a running simulation raises [Effect.Unhandled] (wrapped by
    [Sched] entry points into a clearer error).

    Thread identifiers are plain ints ({!tid}); the higher-level
    {!Cthreads} library wraps them in a friendlier API. *)

type tid = int

type fork_spec = {
  f : unit -> unit;
  proc : int option;  (** pin to a processor, or let the machine place it *)
  prio : int;  (** larger = more important; default 0 *)
  name : string;
}

(** Structured annotations for observers ({!Sched.add_annot_hook}):
    free of virtual-time charge, invisible to the simulated program,
    and consumed by the correctness tooling in [lib/analysis].

    - [A_sync_word]: the word belongs to a synchronization primitive's
      internal state (lock words, guard words, waiter counters); race
      analysis must not treat its raw accesses as application data.
    - [A_relaxed_word]: the word is read/written racily {e on purpose}
      (e.g. the TSP solvers' best-bound copies); the race detector
      skips it, like a C11 relaxed atomic.
    - [A_lock_request]: a blocking acquisition of the lock has begun.
      Emitted {e before} any waiting, so lock-order analysis sees the
      request even when the wait never completes (a real deadlock).
    - [A_lock_acquire]/[A_lock_release]: a mutual-exclusion span over
      the lock identified by its lock word. [spin_wait] is true when
      the lock's current waiting policy never sleeps, so waiters burn
      their processor for as long as the owner holds it.
    - [A_adaptation]: an adaptive object applied a reconfiguration
      ([kind] is the object family, e.g. ["lock"] or ["barrier"];
      [label] names the transition). Emitted by the adaptive feedback
      loop so recorded traces — including predictive runs — see every
      reconfiguration in its linearized position. *)
type annotation =
  | A_sync_word of Memory.addr
  | A_relaxed_word of Memory.addr
  | A_lock_request of { lock : Memory.addr; lock_name : string }
  | A_lock_acquire of { lock : Memory.addr; lock_name : string; spin_wait : bool }
  | A_lock_release of { lock : Memory.addr; lock_name : string }
  | A_adaptation of { obj_name : string; kind : string; label : string }

(** Outcome of one fused lock probe (see {!lock_probe_timed}). *)
type probe_result = Probe_acquired | Probe_expired | Probe_retrying

(** The raw effect constructors, exposed so {!Sched} can handle them.
    Client code should use the wrapper functions below instead. *)
type _ Effect.t +=
  | E_alloc : int option * int -> Memory.addr array Effect.t
  | E_read : Memory.addr -> int Effect.t
  | E_write : Memory.addr * int -> unit Effect.t
  | E_fetch_and_or : Memory.addr * int -> int Effect.t
  | E_fetch_and_add : Memory.addr * int -> int Effect.t
  | E_swap : Memory.addr * int -> int Effect.t
  | E_cas : Memory.addr * int * int -> bool Effect.t
  | E_work : int -> unit Effect.t
  | E_work_instrs : int -> unit Effect.t
  | E_delay : int -> unit Effect.t
  | E_now : int Effect.t
  | E_fork : fork_spec -> tid Effect.t
  | E_join : tid -> unit Effect.t
  | E_yield : unit Effect.t
  | E_block : unit Effect.t
  | E_wakeup : tid -> unit Effect.t
  | E_self : tid Effect.t
  | E_my_processor : int Effect.t
  | E_set_priority : tid * int -> unit Effect.t
  | E_priority_of : tid -> int Effect.t
  | E_processors : int Effect.t
  | E_random : int -> int Effect.t
  | E_trace : string -> unit Effect.t
  | E_annotate : annotation -> unit Effect.t
  | E_thread_name : tid -> string Effect.t
  | E_lock_probe : Memory.addr * int * int * int * int -> probe_result Effect.t
      (** [(word, pre_instrs, retry_instrs, gap_ns, until)]; one fused
          spin-lock probe iteration (see {!lock_probe_timed}). *)
  | E_read_hint : Memory.addr * int * int * int -> int Effect.t
      (** [(addr, pre_ns, gap_ns, expect)]; one fused hint-spin
          iteration (see {!read_hint}). *)
  | E_probe_retry : int * int -> probe_result Effect.t
      (** [(retry_instrs, gap_ns)]; the retry tail of a failed probe
          whose test-and-set was charged directly, answering
          [Probe_retrying]. *)

(** {1 Memory} *)

val alloc : ?node:int -> int -> Memory.addr array
(** Allocate words in a memory module ([node] defaults to the calling
    thread's current processor). Charged as one local write. *)

val alloc1 : ?node:int -> unit -> Memory.addr

val read : Memory.addr -> int
val write : Memory.addr -> int -> unit

val fetch_and_or : Memory.addr -> int -> int
(** The hardware [atomior] primitive (returns the previous value);
    [test_and_set] below is the common idiom. *)

val fetch_and_add : Memory.addr -> int -> int
val swap : Memory.addr -> int -> int
val compare_and_swap : Memory.addr -> expected:int -> desired:int -> bool

val test_and_set : Memory.addr -> bool
(** [test_and_set a] is [fetch_and_or a 1 = 0]: true iff the caller
    obtained the flag. *)

(** {1 Time} *)

val work : int -> unit
(** [work ns] consumes [ns] nanoseconds of pure computation on the
    calling thread's processor. *)

val work_instrs : int -> unit
(** Computation expressed in modeled instructions. *)

val delay : int -> unit
(** [delay ns] waits without occupying the processor: other ready
    threads on the same processor may run meanwhile. This is the
    back-off primitive. *)

val now : unit -> int
(** Current virtual time (free of charge). *)

(** {1 Fused operations}

    One spin-loop iteration as a single effect. Semantically these are
    {e exactly} their decomposed sequences. In a fast slice they charge
    their components directly while they fit, and the first component
    that does not fit performs one fused effect for the rest; with
    fusion disabled (see [Sched.set_op_fusion]) it performs the
    component's own effect. The fused encoding only cuts the number of
    continuation captures per iteration from up to four to one. *)

val lock_probe_timed :
  ?pre_instrs:int -> ?retry_instrs:int -> ?gap_ns:int -> until:int ->
  Memory.addr -> probe_result
(** [lock_probe_timed ~pre_instrs ~retry_instrs ~gap_ns ~until word] is
    the sequence
    [work_instrs pre_instrs; test_and_set word] — returning
    [Probe_acquired] on success — followed, on failure, by either
    [Probe_expired] (when virtual time has reached [until], checked at
    the test-and-set's completion, before any retry cost) or
    [work_instrs retry_instrs; work gap_ns] and [Probe_retrying]. A
    negative [until] has always passed; [until = max_int] never
    arrives. *)

val lock_probe :
  ?pre_instrs:int -> ?retry_instrs:int -> ?gap_ns:int -> Memory.addr -> bool
(** {!lock_probe_timed} with [until = max_int], a deadline that never
    arrives: true iff the word was won. *)

val read_hint : ?pre_ns:int -> ?gap_ns:int -> expect:int -> Memory.addr -> int
(** [read_hint ~pre_ns ~gap_ns ~expect a] is
    [work pre_ns; let v = read a in (if v = expect then work gap_ns); v]
    — one polling iteration of a hint-word spin, fused. *)

(** {1 Threads} *)

val fork : fork_spec -> tid
val join : tid -> unit
val yield : unit -> unit

val block : unit -> unit
(** Deschedule the calling thread until some other thread calls
    {!wakeup} on it. A wakeup that arrives first is not lost: the next
    [block] returns immediately. *)

val wakeup : tid -> unit

val self : unit -> tid
val my_processor : unit -> int
val set_priority : tid -> int -> unit
val priority_of : tid -> int

val processors : unit -> int
(** Number of processors of the running machine. *)

val random : int -> int
(** Deterministic draw from the simulation's RNG stream, uniform in
    [\[0, bound)]. Free of virtual-time charge. *)

val trace : string -> unit
(** Emit a debug trace line (visible when the simulation's [on_trace]
    hook is installed). Free of charge. *)

(** {1 Analysis annotations} *)

val annotate : annotation -> unit
(** Publish an {!annotation} to the machine's annotation hooks. Free
    of virtual-time charge; a no-op when no hook is installed. With
    zero subscribers the call returns after a single flag read — no
    effect is performed at all. *)

val annotations_enabled : unit -> bool
(** True when the machine currently running on this domain has at
    least one annotation subscriber. Hot synchronization paths check
    this before building annotation payloads, so with no subscriber
    they allocate nothing at all. Host-side and free of charge. *)

val set_annotations_enabled : bool -> unit
(** Scheduler-internal: {!Sched.run} publishes its machine's
    subscriber state here for the duration of the run. Not for
    simulated code. *)

val mark_sync_words : Memory.addr array -> unit
(** Register words as synchronization-internal state
    ([A_sync_word]). Synchronization primitives call this at creation
    time for every simulated word they own. *)

val mark_relaxed_word : Memory.addr -> unit
(** Register a word as intentionally racy ([A_relaxed_word]). *)

val thread_name : tid -> string
(** Name a thread was forked with (for diagnostics). Free of charge.
    Raises [Invalid_argument] on an unknown tid. *)
