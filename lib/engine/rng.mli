(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator and the workload
    generators draws from one of these streams, so a (seed, parameters)
    pair reproduces a run bit-for-bit. The generator is the splitmix64
    mixer, which is fast, has a full 2^64 period per stream, and
    supports cheap stream splitting for independent substreams. *)

type t
(** A mutable generator stream. *)

val create : int -> t
(** [create seed] is a fresh stream. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent stream and advances [t]. Use one
    split stream per simulated component so adding draws to one
    component does not perturb another. *)

val copy : t -> t
(** [copy t] duplicates the stream state (the copy replays [t]'s
    future). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean; used for
    arrival processes in workload generators. *)

