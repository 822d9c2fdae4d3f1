(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator and the workload
    generators draws from one of these streams, so a (seed, parameters)
    pair reproduces a run bit-for-bit. The generator is the splitmix64
    mixer, which is fast and has a full 2^64 period per stream. *)

type t
(** A mutable generator stream. *)

val create : int -> t
(** [create seed] is a fresh stream. Equal seeds give equal streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)
