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
val iter : (entry -> unit) -> t -> unit

val iteri : (int -> entry -> unit) -> t -> unit
(** Like {!iter} with the entry's position in the trace: the global
    linearization index the predictive passes use to relate events. *)

val iter_side : (entry -> unit) -> t -> unit
(** Like {!iter} over the events and annotations only, still in trace
    order: no [Access] entry is rebuilt, so a pass that matches none
    costs nothing per access. *)

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
