(** TSP instances: seeded random asymmetric cost matrices.

    The paper runs LMSK (the Little–Murty–Sweeney–Karel branch-and-
    bound, which operates on asymmetric TSP) on a fully connected
    32-city problem; the concrete instance is not published, so we
    generate seeded random matrices — any instance of comparable
    search-tree size produces the same locking-pattern phenomena. *)

type t

val generate : seed:int -> int -> t
(** [generate ~seed n] is an [n]-city instance with independent
    uniform edge costs in [\[1, 100\]], asymmetric. Deterministic in
    [seed]. *)

val generate_euclidean : seed:int -> int -> t
(** [generate_euclidean ~seed n] places [n] cities uniformly in a
    1000-unit square and uses rounded Euclidean distances (symmetric costs).
    Symmetric instances are substantially harder for LMSK, giving the
    deeper search trees the parallel experiments need. *)

val of_matrix : int array array -> t
(** Build from an explicit cost matrix (diagonal ignored). An entry of
    [max_int / 4] or more forbids its edge. Raises [Invalid_argument]
    if not square, smaller than 3, or an off-diagonal cost is negative:
    LMSK's reduction bound assumes costs of at least zero. *)

val size : t -> int

val cost : t -> int -> int -> int
(** [cost t i j] is the directed edge cost; [i = j] is forbidden
    (returns a huge sentinel). *)

val tour_cost : t -> int list -> int
(** Cost of a closed tour visiting the given city order. Raises
    [Invalid_argument] when the list is not a permutation of all
    cities. *)

val nearest_neighbour : t -> int list * int
(** Greedy tour (a cheap upper bound and sanity baseline). *)
