(** Vector clocks over dense thread ids.

    Components default to 0; a thread's own component is initialized
    to 1 when its clock is first created so that "component [c] of
    [tid] is known to the observer" is always a strict inequality test
    (0 would make every thread trivially ordered after everyone).

    The happens-before test used by the race detector is the epoch
    form: an access by thread [u] with own-component value [c]
    happened before the current point of thread [v] iff
    [c <= get v_clock u].

    A clock grows only to the length an update needs: [set t i] to
    [i + 1] components, [join t snap] to [Array.length snap]. So no
    clock or snapshot is ever longer than the highest tid its owner
    has heard of, plus one. *)

type t

val create : unit -> t
(** All components 0. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val incr : t -> int -> unit
(** Bump one component (a thread bumps its own after each outgoing
    synchronization edge, so later local work is not ordered by it). *)

val snapshot : t -> int array
(** An immutable copy, for publishing on a synchronization edge. *)

val join : t -> int array -> unit
(** Pointwise max with a published snapshot (an incoming edge). *)

val join_clock : t -> t -> unit
(** [join_clock t u] is [join t (snapshot u)] without the copy: an
    incoming edge from a clock that is still live. *)
