(** Cthreads-like user-level threads on the simulated multiprocessor.

    This is the package the paper's locks live in [Muk91]: lightweight
    threads with fork/join, cooperative scheduling per processor,
    block/wakeup as the basic sleeping primitive, and priorities (used
    by priority lock schedulers). All functions must be called from
    inside a running simulation ({!Butterfly.Sched.run}). *)

type t
(** A thread handle. *)

val fork : ?name:string -> ?proc:int -> ?prio:int -> (unit -> unit) -> t
(** Create a thread. [proc] pins it to a processor (the paper's TSP
    runs one searcher per dedicated processor); otherwise the machine
    places it round-robin. *)

val join : t -> unit
val join_all : t list -> unit

val self : unit -> t
val id : t -> int
val of_id : int -> t

val yield : unit -> unit

val block : unit -> unit
(** Sleep until {!wakeup}. A wakeup that raced ahead is remembered, so
    the block/wakeup pair never loses a notification. *)

val wakeup : t -> unit

val delay : int -> unit
(** Wait [ns] without occupying the processor. *)

val work : int -> unit
(** Compute for [ns] (occupies the processor). *)

val now : unit -> int
val set_priority : t -> int -> unit
val priority : t -> int
val random : int -> int
