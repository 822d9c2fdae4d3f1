(** The LMSK branch-and-bound engine (Little, Murty, Sweeney, Karel
    1963) for the asymmetric TSP.

    Pure, host-side search machinery: matrix reduction bounds,
    maximum-penalty zero-entry branching, include/exclude children with
    subtour-closure forbidding, and leaf completion. The solvers
    (sequential and parallel) own the open-node collections, pruning
    and — when running on the simulated machine — virtual-work
    charging: {!expand} reports the abstract work it performed so
    callers can charge it. *)

type node

val root : Instance.t -> node
(** The reduced initial problem. *)

val bound : node -> int
(** Lower bound on any tour completing this subproblem. *)

val edges : node -> (int * int) list
(** Edges already included, most recent first. *)

type outcome =
  | Children of node list  (** 0, 1 or 2 feasible subproblems *)
  | Tour of int list * int  (** a completed tour (city order, cost) *)

type expansion = { outcome : outcome; work : int }
(** [work] is in abstract units proportional to the reduction effort
    (about [k]^2 on a subproblem with [k] cities left). *)

val expand : Instance.t -> node -> expansion
(** Branch a node: selects the maximum-penalty zero entry, builds the
    include/exclude children (dropping infeasible ones), or completes
    the tour when two cities remain. *)

val solve_sequential :
  ?initial:int list * int ->
  ?on_expand:(node -> int -> unit) ->
  Instance.t ->
  (int list * int) * int
(** Best-first sequential solve. Returns ((tour, cost), nodes
    expanded). [on_expand node work] fires after each expansion — the
    simulated sequential baseline charges virtual time there. *)

val brute_force : Instance.t -> int
(** Exact optimum by exhaustive permutation over the tours that avoid
    forbidden ([>= max_int / 4]) edges, or [max_int / 4] when every tour
    uses one; for tests ([n] <= 10). *)
