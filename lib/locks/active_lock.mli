(** An active-implementation lock: a dedicated lock-server thread.

    The [MS93] recap's second implementation axis is "passive vs active
    locks". A passive lock's methods run on the invoking thread (all
    the other locks in this library); an {e active} lock is owned by a
    server thread on a dedicated processor — clients send
    acquire/release messages and sleep, and the server grants the lock
    in arrival order. Waiters generate no interconnect traffic at all
    while they wait, at the price of two message hops per operation,
    which is the right trade on message-passing (NORMA) and heavily
    contended NUMA configurations and a waste on small UMA ones. *)

type t

val create : server_proc:int -> unit -> t
(** Forks the server thread pinned to [server_proc] (dedicate that
    processor). The mailbox words live on the server's node. *)

val lock : t -> unit
val unlock : t -> unit

val shutdown : t -> unit
(** Stop and join the server (required before the simulation can
    finish). The lock must be free. *)

val stats : t -> Lock_stats.t
