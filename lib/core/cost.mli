(** Operation costs in the paper's formal model: [t = n1 R n2 W].

    Section 3.1 expresses the cost of state transitions (Upsilon),
    reconfigurations (Psi) and initializations (I) as counts of memory
    reads and writes. A {!t} carries those counts plus optional pure
    computation; {!charge} realizes the cost on the simulated machine
    by actually touching a scratch word at the object's home node, so
    local/remote placement affects the realized latency exactly as it
    does in the paper's Table 8. *)

type t = { reads : int; writes : int; instrs : int }

val zero : t

val make : ?reads:int -> ?writes:int -> ?instrs:int -> unit -> t

val reads_writes : int -> int -> t
(** [reads_writes n1 n2] is the paper's [n1 R n2 W]. *)

val ( + ) : t -> t -> t
(** Costs of composite reconfigurations add (paper §3.1). *)

val charge : scratch:Butterfly.Memory.addr -> t -> unit
(** Realize the cost from inside a simulated thread: perform [reads]
    reads and [writes] writes on [scratch] plus [instrs] instructions
    of computation. *)
