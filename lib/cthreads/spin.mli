(** A minimal test-and-set spin mutex.

    This is {e not} one of the paper's configurable locks — it is the
    primitive internal mutex the thread package itself uses to protect
    the host-side state of higher-level primitives ({!Semaphore},
    {!Barrier}, lock waiter queues). It occupies a single simulated
    word and probes with a fixed gap, so hot-spot contention on it is
    modelled faithfully. *)

type t

val create : ?node:int -> unit -> t
(** Allocate the mutex word ([node] defaults to the caller's
    processor). Must run inside the simulation. *)

val lock : t -> unit
(** Spin (with a small constant probe gap) until acquired. *)

val try_lock : t -> bool

val unlock : t -> unit

val probe_gap_ns : int
(** Gap between failed probes; the adaptive variants reuse it as their
    spin-poll granularity so spin costs stay comparable. *)
