(** Simulated NUMA memory: one module (bank) of words per node.

    A word holds an OCaml [int]. Addresses are (node, index) pairs;
    accesses from the owning node are "local", others are "remote" and
    pay the interconnect latency from {!Config}. When contention
    modelling is enabled, each module serializes accesses: a module
    busy serving one access delays the next one, which is how hot-spot
    contention on a centralized lock or queue manifests.

    This module only implements the state machine (values, allocation,
    module occupancy). It charges no virtual time itself — the
    scheduler computes costs from {!Config} and {!reserve}. *)

type t

type addr [@@immediate]
(** An allocated word. Immediate, so an address stored into a field
    or an array costs no write barrier. *)

val node_of : addr -> int
(** Owning node (memory module) of an address. *)

val index_of : addr -> int

val create : Config.t -> t

val alloc : t -> node:int -> int -> addr array
(** [alloc mem ~node n] allocates [n] fresh zero-initialized words in
    [node]'s module and returns their addresses (consecutive indices).
    Raises [Invalid_argument] on a bad node id. *)

(** {1 Value operations}

    These mutate/inspect word values instantly; the scheduler invokes
    them at each operation's virtual completion time so that operations
    linearize in virtual-time order. *)

val read : t -> addr -> int
val write : t -> addr -> int -> unit

val fetch_and_or : t -> addr -> int -> int
(** The Butterfly's [atomior]: returns the previous value. *)

val fetch_and_add : t -> addr -> int -> int
val swap : t -> addr -> int -> int

val compare_and_swap : t -> addr -> expected:int -> desired:int -> bool

(** {1 Timing} *)

type access = Read_access | Write_access | Atomic_access

val latency : Config.t -> from_node:int -> addr -> access -> int
(** Raw wire+module latency of an access, ignoring contention. *)

val reserve : t -> Config.t -> from_node:int -> addr -> access -> start:int -> int
(** [reserve mem cfg ~from_node a kind ~start] books the access on the
    target module beginning no earlier than [start] and returns its
    completion time. With contention disabled this is
    [start + latency]; with contention enabled the access also waits
    for the module to be free and occupies it for the configured
    service time. *)

val try_reserve :
  t -> Config.t -> from_node:int -> addr -> access -> start:int -> budget:int -> int
(** The fast path's charge: {!reserve}, but only when it may proceed.
    Returns the access duration (completion minus [start]) after
    booking it, or [-1] — with {e no} state change — when the address
    is unallocated (the accessors would raise [Invalid_argument]) or
    the duration would reach [budget] (the caller's remaining
    preemption slice), so the caller can fall back to the effect path
    and its error or preemption. A booked access's arithmetic is
    identical to {!reserve}'s. *)

(** {2 Fast-path value accessors}

    Unchecked variants of the accessors above, valid {e only}
    immediately after a successful {!try_reserve} on the same address
    (which proves it allocated). Semantically identical to their
    checked counterparts on valid addresses. *)

val fast_read : t -> addr -> int
val fast_write : t -> addr -> int -> unit
val fast_fetch_and_or : t -> addr -> int -> int
val fast_fetch_and_add : t -> addr -> int -> int
val fast_swap : t -> addr -> int -> int
val fast_compare_and_swap : t -> addr -> expected:int -> desired:int -> bool

val busy_until : t -> node:int -> int
(** Current occupancy horizon of a module (for tests/metrics). *)

(** {1 Fault injection}

    Host-side degradation knobs used by the fault injector
    ([lib/faults]). They mutate the module's timing model only; word
    values and allocation are untouched, so a plan that never fires
    leaves the machine bit-for-bit identical. *)

val set_degrade_factor : t -> node:int -> int -> unit
(** Multiply the module's wire latency and (under contention) service
    time by [factor]. [1] restores the healthy module. Raises
    [Invalid_argument] when [factor < 1] or the node is bad. *)

val degrade_factor : t -> node:int -> int

val stall_module : t -> node:int -> until_ns:int -> unit
(** Mark the module busy until [until_ns] (a temporarily stuck
    module): with contention modelling enabled, every access must wait
    for the stall to clear before being served. Never shortens an
    existing occupancy. *)

val words_used : t -> node:int -> int

val remote_accesses : t -> int
(** Count of remote (inter-node) accesses reserved so far. *)

val total_accesses : t -> int
