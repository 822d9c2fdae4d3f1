(** Flat machine state shared between [Sched] and [Ops].

    The scheduler's hot per-processor and per-thread scalars live here
    as unboxed int arrays (one [t] per machine), and the domain-local
    {!current} binding is how [Ops]'s zero-effect fast paths find the
    machine whose dispatch slice is executing. A fast slice charges an
    operation directly when it completes strictly before the slice's
    [limit]: the dispatcher would pick the same thread again anyway. This module is
    plumbing between the two; simulated code and experiment drivers
    never touch it directly — the public switches are re-exported as
    [Sched.set_fast_paths] and [Sched.set_op_fusion]. *)

(** Thread status codes for the [status] array. *)

val st_ready : int
val st_running : int
val st_blocked : int
val st_joining : int
val st_finished : int

type t = {
  mutable mem : Memory.t;
  mutable cfg : Config.t;
  mutable quantum : int;  (** [cfg.quantum_ns], [max_int] when [None] *)
  mutable max_events : int;
  mutable events : int;  (** the machine's canonical event count *)
  mutable fast : bool;
      (** the dispatch slice in progress may charge directly *)
  mutable limit : int;
      (** the slice's lookahead bound: the earliest of the next time
          another processor would be dispatched, the next fault timer
          and the quantum boundary; fixed for the slice *)
  mutable tid : int;  (** thread being dispatched, -1 between slices *)
  mutable pid : int;  (** its processor *)
  pnow : int array;  (** per-processor clock, indexed by pid *)
  busy : int array;
  slice : int array;  (** cpu consumed since the last scheduling point *)
  last_tid : int array;
  mutable status : int array;  (** per-thread, indexed by tid; grown *)
  mutable tproc : int array;
  mutable prio : int array;
  mutable wake_at : int array;
  mutable cpu : int array;
  mutable penalty : int array;
  mutable work_left : int array;
  mutable tokens : int array;
  mutable acc_events : int;
      (** batched counter accumulators, folded per slice *)
  mutable acc_read : int;
  mutable acc_write : int;
  mutable acc_atomic : int;
  mutable on_access : (Memory.addr -> Memory.access -> unit) option;
      (** the access-bus emitter, [None] with no subscriber; called by a
          fast memory charge before the clock advances *)
}

val create : cfg:Config.t -> mem:Memory.t -> t
val ensure_thread : t -> int -> unit
(** Grow the per-thread arrays so the given tid is a valid index. *)

val get : unit -> t
(** The machine state currently bound to this domain (a dummy with
    [fast = false] outside any [Sched.run]). *)

val swap_in : t -> t
(** Bind a machine's state to this domain, returning the previous
    binding for {!restore} — how nested and back-to-back runs on one
    domain compose. *)

val restore : t -> unit

val set_fast_paths : bool -> unit
(** Allow/forbid dispatch slices to enter fast mode (default on).
    Purely a performance switch: outcomes are bit-identical either
    way. *)

val fast_paths_enabled : unit -> bool

val set_op_fusion : bool -> unit
(** Allow/forbid the fused [Ops] wrappers' single-effect encoding
    (default on). Purely a performance switch. *)

val op_fusion_enabled : unit -> bool
