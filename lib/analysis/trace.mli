(** A recording of one simulated run: the three scheduler buses
    (scheduling events, memory accesses, annotations) merged into a
    single sequence in arrival order.

    Because the simulator is deterministic and delivers every hook
    callback synchronously at the emitting operation, arrival order
    {e is} the global linearization of the run: identical runs produce
    identical traces, which is what makes the offline analysis passes
    bit-for-bit reproducible.

    The recording is stored packed: accesses, nearly all the entries of
    a long run, sit in unboxed columns (time; tid, proc and access kind
    packed into one int; address), three words an access, while events
    and annotations stay boxed beside them with their positions.
    {!iter} and {!iteri} rebuild each [Access] entry as they reach it,
    so consumers see the same entries in the same order as if they had
    been stored boxed. *)

open Butterfly

type entry =
  | Event of Sched.event
  | Access of Sched.access
  | Annot of Sched.annot

type t

val attach : Sched.t -> t
(** Subscribe a recorder to all three buses of a machine. Call before
    [Sched.run]; other observers may subscribe alongside it. An access
    whose tid or proc does not fit its packed field (proc at most
    65535) raises [Invalid_argument] at recording time rather than
    wrapping. *)

val length : t -> int

type exempt
(** A set of word keys: see {!val-exempt}. *)

val iter : ?skip:exempt -> (entry -> unit) -> t -> unit
(** Every entry in trace order. With [skip], an access to a word in
    the set is passed over before its [Access] entry is rebuilt, so a
    pass that ignores those words pays one key test for each. *)

val iteri : ?skip:exempt -> (int -> entry -> unit) -> t -> unit
(** Like {!iter} with the entry's position in the trace: the global
    linearization index the predictive passes use to relate events. *)

val iteri_side : (int -> entry -> unit) -> t -> unit
(** Like {!iteri} over the events and annotations only, still in trace
    order and with their positions: no [Access] entry is rebuilt, so a
    pass that matches none costs nothing per access. *)

val events : t -> int
(** Number of scheduling events recorded. O(1). *)

val accesses : t -> int
(** Number of memory accesses recorded. O(1). *)

type adaptation = {
  ad_time : int;  (** virtual time the reconfiguration applied *)
  ad_tid : int;  (** thread that ran the policy *)
  ad_obj : string;  (** object name, e.g. ["round-barrier"] *)
  ad_kind : string;  (** object family, e.g. ["barrier"] *)
  ad_label : string;  (** transition label, e.g. ["spin-more"] *)
}

val adaptations : t -> adaptation list
(** The [Ops.A_adaptation] annotations of the trace, in arrival order:
    every reconfiguration any adaptive object applied during the run,
    so analysis reports can relate flagged windows to the
    reconfigurations that preceded them. *)

(** {1 State the analysis passes share}

    Every pass over a trace names words and locks by the same {!key},
    reads the same exemption set and tracks held locks with the same
    {!Held} stack, so no pass rebuilds what another already defines. *)

type key = int
(** A word's or lock's identity within a run: its (node, index)
    address packed into one int, node in the high half, so tables keyed
    by it hash an unboxed int. Int order is (node, index) order. *)

val key : Memory.addr -> key

val key_name : key -> string
(** ["node:index"], the form every diagnostic names a word by. *)

module Key_tbl : Hashtbl.S with type key = key

val exempt : t -> exempt
(** The words no race rule may report: words registered with
    [Ops.A_sync_word] (primitive internals) or [Ops.A_relaxed_word]
    (intentionally racy), and every word an atomic operation touched
    {e anywhere} in the run, so a word is exempt even at accesses that
    precede its first atomic. Computed by one scan of the access
    columns and side entries, then kept: passes over the same finished
    trace share one scan. *)

val is_exempt : exempt -> key -> bool
(** One table lookup, or one int comparison when [key] is the one the
    previous call on this set asked about (the set keeps that answer). *)

(** A per-thread stack of held locks, innermost first, fed from
    [A_lock_acquire]/[A_lock_release] annotations by the pass that owns
    it. Each pass keeps its own entries ['a] (a key, a name, an open
    critical section...), identified by the lock key [key_of] reads. *)
module Held : sig
  type 'a t

  val create : ('a -> key) -> 'a t

  val get : 'a t -> int -> 'a list
  (** The thread's held entries, innermost first ([[]] if none). *)

  val push : 'a t -> int -> 'a -> unit
  (** An acquisition: the entry becomes the innermost. *)

  val pop : 'a t -> int -> key -> 'a option
  (** A release: remove and return the innermost entry for the lock;
      [None], with the stack unchanged, when the thread holds none. *)

  val drop : 'a t -> int -> unit
  (** Forget a finished thread's stack. *)
end

val thread_names : Sched.t -> int -> string
(** The tid→name function of a machine's threads (from
    [Sched.thread_report]); unknown tids print as ["t<tid>"]. *)

(** {1 Views of the scheduling events}

    The offline half of the general-purpose monitoring story [GS93]:
    the recorded event stream, queried after the run. Each view walks
    the events and annotations only. *)

val count : t -> Sched.event_kind -> int
(** Events of one kind. *)

val event_counts : t -> string
(** One line listing every event kind with its count. *)

val blocked_spans : t -> int -> (int * int) list
(** [(block-time, wakeup-time)] pairs for a thread, derived from its
    block/wakeup events (an unmatched final block yields no pair). *)

val timeline : t -> horizon:int -> string
(** ASCII execution timeline: one lane per processor, 72 columns of
    time buckets up to [horizon] ns; each cell shows the thread that
    last switched onto the processor in that bucket ('.' when none,
    digits/letters for tids modulo 62). *)
