(** The waiting-policy attributes of a configurable lock.

    These are the paper's mutable attributes (§5.1's table):

    {v
    spin-time  delay-time  sleep-time  timeout   resulting lock
        n          0           0          0      pure spin
        n          n           0          0      spin (back-off)
        0          0           n          0      pure sleep
        x          x           x          n      conditional sleep/spin
        n          n           n          x      mixed sleep/spin
    v}

    Interpretation: [spin_count] is the number of initial probes before
    the sleeping path is considered ([max_int] means spin forever);
    [delay_ns] is the gap between probes (0 = tight spinning; with
    [backoff] the gap doubles after each failed probe, Anderson-style);
    [sleep] enables blocking once the spin phase is exhausted;
    [timeout_ns] caps the spin phase's duration regardless of probe
    count (0 = no cap). Each is an {!Adaptive_core.Attribute} so
    mutability and ownership follow the adaptive-object model. *)

type t = {
  spin_count : int Adaptive_core.Attribute.t;
  delay_ns : int Adaptive_core.Attribute.t;
  backoff : bool Adaptive_core.Attribute.t;
  sleep : bool Adaptive_core.Attribute.t;
  timeout_ns : int Adaptive_core.Attribute.t;
}

val make :
  ?node:int ->
  spin_count:int ->
  delay_ns:int ->
  backoff:bool ->
  sleep:bool ->
  timeout_ns:int ->
  unit ->
  t
(** Fully explicit constructor; the named flavours below are the
    common rows of the table. *)

val pure_spin : ?node:int -> unit -> t
val backoff_spin : ?node:int -> unit -> t
(** Spin with exponential backoff from a 2 µs delay; never block. *)

val pure_sleep : ?node:int -> unit -> t

val combined : ?node:int -> spins:int -> unit -> t
(** Spin [spins] probes, then block (the paper's combined lock of
    Figure 1, e.g. [~spins:10]). *)

val conditional : ?node:int -> timeout_ns:int -> unit -> t
(** Spin until the deadline, then block. *)

val describe : t -> string
(** The "resulting lock" name from the paper's table. *)

val freeze : t -> unit
(** Make every attribute immutable. Static lock flavours do this
    before {!Lock_core.create}, which then builds no reconfiguration. *)
