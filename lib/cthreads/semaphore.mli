(** Counting semaphore with blocking waiters.

    Built from the internal {!Spin} mutex plus the package's
    block/wakeup primitive. Waiters are released in FIFO order. *)

type t

val create : ?node:int -> int -> t
(** [create n] is a semaphore with [n] initial permits ([n >= 0]). *)

val acquire : t -> unit
(** Take a permit, blocking when none is available. *)

val try_acquire : t -> bool
(** Take a permit if one is immediately available. *)

val release : t -> unit
(** Return a permit, waking the longest-waiting thread if any. *)
