(** Mutable object attributes (the paper's [CV] set).

    An attribute is a named, typed cell characterizing part of an
    object's internal implementation (e.g. a lock's [spin-time]). It
    carries the two time-dependent properties of §3: {b mutability} —
    whether its value may currently be changed — and {b ownership} —
    which thread, if any, holds the exclusive right to reconfigure it.

    Ownership is acquired implicitly (the object's own methods
    reconfigure while holding the object) or explicitly through
    {!acquire} by an external agent such as a monitoring thread; the
    paper's Table 8 prices that acquisition like a test-and-set, which
    is exactly how it is implemented here. *)

type 'a t

val make_at : name:string -> node:int -> 'a -> 'a t
(** A fresh, mutable attribute whose ownership word lives at [node].
    Must be created inside a simulation. *)

val get : 'a t -> 'a
(** Raw value read (host-side; callers charge simulated cost at the
    granularity of whole reconfiguration operations, per §3.1). *)

val set : 'a t -> 'a -> unit
(** Raw value update. Raises [Immutable_attribute] when the attribute
    is currently immutable, and [Not_owner] when it is owned by a
    thread other than the caller. *)

exception Immutable_attribute of string
(** Payload is the attribute name. *)

exception Not_owner of string
(** Payload names the attribute, the holding thread (if any) and the
    caller: ["spin-time (held by thread 3, caller thread 7)"]. *)

val mutability : 'a t -> bool
val set_mutability : 'a t -> bool -> unit

val acquire : 'a t -> bool
(** Explicit ownership acquisition by the calling thread (an atomic
    test-and-set on the attribute's ownership word). Returns false if
    another thread holds it. *)

val release : 'a t -> unit
(** Release ownership. Raises [Not_owner] if the caller does not hold
    it. *)
