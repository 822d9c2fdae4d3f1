(** Reusable (cyclic) barrier for a fixed party count. *)

type t

val create : ?node:int -> int -> t
(** [create n] is a barrier for [n] parties ([n >= 1]). *)

val await : t -> unit
(** Block until all [n] parties have arrived; the last arrival wakes
    everyone and the barrier resets for the next cycle. *)
