(** Named integer counters.

    Lightweight event counting shared by the machine, the thread
    package, the lock family, and the monitors. A [t] is a bag of
    counters addressed by string name; reading a counter that was never
    incremented yields 0. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** Increment a counter by one. *)

val cell : t -> string -> int ref
(** The counter's underlying cell, created at 0 on first use. Callers
    on hot paths cache the ref and bump it directly, skipping the
    hashtable lookup that {!incr} pays per call. *)

val get : t -> string -> int
(** Current value, 0 if never touched. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)
