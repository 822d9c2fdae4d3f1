(** A distributed-implementation lock: queue lock with local spinning.

    The [MS93] recap compares "centralized vs distributed locks" as
    implementation re-targeting for different architectures. A
    centralized spin lock makes every waiter hammer one memory module
    through the interconnect; this distributed implementation gives
    each processor its own flag word {e in its local module}, so a
    waiter spins on purely local memory and the releaser performs a
    single remote write to hand the lock over (in the spirit of
    Anderson's array locks and MCS queue locks).

    On the NUMA machine this eliminates both the remote-probe traffic
    and the hot-spot contention; on a UMA machine it buys nothing —
    exactly the architecture-dependence the ablation demonstrates. *)

type t

val create : home:int -> unit -> t
(** Allocates the tail/guard words at [home] and one flag word in every
    processor's local module. *)

val lock : t -> unit
val unlock : t -> unit
val stats : t -> Lock_stats.t
