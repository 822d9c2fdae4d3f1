(** Readers-writer locks, including an adaptive variant.

    The paper's future work proposes applying closely-coupled
    adaptation "in other operating system components as well"; this
    module does it for a second synchronization abstraction. The lock
    has a {e preference} attribute:

    - [Reader_pref]: readers enter whenever no writer holds the lock —
      maximal read concurrency, but a steady read stream starves
      writers;
    - [Writer_pref]: readers also yield to {e waiting} writers —
      bounded writer latency at the cost of read throughput.

    The adaptive variant monitors the waiting-writer count with a
    built-in sensor (sampled at read-side releases) and switches the
    preference attribute: writers queueing up flips it to
    [Writer_pref]; a sustained writer-free stretch flips it back.

    Waiting runs through {!Combined_wait} — the same attribute-driven
    spin-then-block machinery as {!Lock_core}: contended readers and
    writers spin per the lock's {!Waiting} attributes, then register
    on a sleeper list and block; releases grant the lock directly
    (readers their +2, a writer its bit) before waking, so a woken
    thread owns the lock. The preference is a reconfigurable
    {!Adaptive_core.Attribute}. *)

type preference = Reader_pref | Writer_pref

type t

val create : ?name:string -> ?adaptive:bool -> ?policy:Waiting.t -> home:int -> unit -> t
(** The preference starts as [Reader_pref]; with [adaptive] (default
    false) it becomes a monitored, self-tuning attribute, sampled every
    other operation (the feedback loop registers in [Core.Registry]
    with kind ["rw-lock"]). [policy] is the waiting policy shared by
    both sides (default: 6 gap-spaced probes, then sleep). Must run
    inside a simulation. *)

val policy_spec : ?name:string -> unit -> Adaptive_core.Policy.Spec.t
(** The preference-adaptation policy as a declarative spec (metric:
    waiting writers; writer preference on any waiting writer, reader
    preference back after 3 consecutive writer-free samples). What the
    adaptive variant runs and what the static checker inspects. *)

val with_read : t -> (unit -> 'a) -> 'a
(** Run the function holding the lock shared; released on return or
    exception. *)

val with_write : t -> (unit -> 'a) -> 'a
(** Run the function holding the lock exclusively. *)

val preference : t -> preference

val adaptations : t -> int
(** Preference switches performed by the adaptive variant. *)

val reader_acquisitions : t -> int
val mean_writer_wait_ns : t -> float
