(** The weaker-than-happens-before causality engine behind the
    predictive analysis passes.

    Classic happens-before orders every lock release before every
    later acquire of the same lock — an artifact of the observed
    schedule. This engine (in the spirit of the WCP/DC orders from
    dynamic race prediction) keeps only the edges every legal
    reordering of the run must preserve:

    - the hard scheduler edges: fork → child start, finished thread →
      join, waker → wakee (and the wake-token variants);
    - release → access edges between {e conflicting} critical
      sections on the same lock: if a section wrote word [w], a later
      section on the same lock by another thread touching [w] is
      ordered after the first one's release (and a later write is
      ordered after any earlier touch).

    Two events left unordered can be scheduled in either order in some
    reordering of the run that respects lock semantics and the hard
    edges — they are prediction candidates, whose soundness is then
    established by witness replay ({!Witness}), never assumed.

    The engine is fed incrementally, in trace order, by {!Predict}. *)

open Butterfly

(** Thread clocks fed the hard scheduler edges only: fork → child
    start, waker → wakee, a wake token's sender → the thread that
    absorbs it, finished thread → joiner. Thread finish collapses the
    clock to one snapshot kept for joins. This order's engine below and
    the observed race detector ({!Race}, which adds release → acquire)
    each run one. *)
module Clocks : sig
  type t

  val create : unit -> t

  val clock : t -> int -> Vclock.t
  (** The thread's live clock, created with its own component at 1. *)

  val on_event : t -> Sched.event -> unit
end

type key = Trace.key

type t

val create : unit -> t

val on_event : t -> Sched.event -> unit
(** Apply a scheduling event's hard edges (fork, join, wakeup, token;
    thread finish collapses the thread's clock to a snapshot). *)

val on_acquire : t -> tid:int -> lock:key -> unit
(** A lock acquisition: opens a critical section. Deliberately adds no
    release→acquire edge. *)

val on_release : t -> tid:int -> lock:key -> unit
(** Close the matching open section: publish its word set into the
    lock's conflict tables and advance the thread's epoch. *)

val on_access : t -> tid:int -> word:key -> write:bool -> unit
(** A memory access: absorb the release clocks of earlier conflicting
    sections on the locks currently held (call {e before} reading the
    accessor's clock for this access), then record the word into the
    open sections. *)

val epoch : t -> int -> int
(** The thread's own clock component right now — the epoch to store
    with an event for later {!ordered} tests. *)

val snapshot : t -> int -> int array
(** Full copy of a thread's clock (for request records compared pair
    against pair later). *)

val ordered : t -> tid:int -> comp:int -> before:int -> bool
(** [ordered t ~tid ~comp ~before:obs]: is the event by [tid] with
    epoch [comp] weakly ordered before thread [obs]'s current point? *)

val ordered_snapshot : tid:int -> comp:int -> int array -> bool
(** Same test against a stored clock snapshot. *)
