(** Lock scheduling policies: who acquires next.

    The scheduling component of a lock object determines the delay in
    lock acquisition experienced by a thread and consists of three
    disjoint sub-components [MS93]:
    - {b registration} — logging each thread desiring access,
    - {b acquisition} — the waiting mechanism applied to each
      registered thread (the {!Waiting} policy),
    - {b release} — selecting the next thread granted access.

    This module implements the registration and release components for
    the three schedulers the paper compares: FCFS, Priority (highest
    thread priority first), and Handoff (the owner designates a
    successor, as in Black's handoff scheduling; falls back to FCFS
    when no successor was named). *)

type kind = Fcfs | Priority | Handoff

val kind_name : kind -> string

type waiter = { tid : int; prio : int; enqueued_at : int }

type t
(** A waiter queue governed by a (reconfigurable) scheduling kind. *)

val create : kind -> t

val set_kind : t -> kind -> unit
(** Scheduler reconfiguration (the queue already registered keeps its
    entries; the paper models the changeover delay with a flag, priced
    in {!Lock_costs.configure_scheduler}). *)

val register : t -> waiter -> unit
(** The registration component. *)

val cancel : t -> int -> unit
(** Remove a thread that acquired the lock without sleeping (its
    registration is void). *)

val release_next : t -> successor:int option -> waiter option
(** The release component: pick (and remove) the next waiter according
    to the current kind. [successor] is the owner-designated thread for
    Handoff scheduling; it is honoured only when that thread is
    actually registered. *)

val waiting : t -> int
val is_empty : t -> bool
