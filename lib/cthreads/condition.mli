(** Condition variables over the internal {!Spin} mutex.

    The classic monitor pattern for simulated applications: a waiter
    atomically releases the mutex and sleeps; [signal] wakes the
    longest-waiting thread, [broadcast] wakes everyone. Waiters
    re-acquire the mutex before {!wait} returns. Mesa semantics: a
    woken waiter must re-check its predicate. *)

type t

val create : ?node:int -> unit -> t

val wait : t -> Spin.t -> unit
(** [wait cv mu] releases [mu], sleeps until signalled, then
    re-acquires [mu]. The caller must hold [mu]. *)

val signal : t -> unit
(** Wake one waiter (no-op when none). *)

val broadcast : t -> unit
(** Wake every current waiter. *)
