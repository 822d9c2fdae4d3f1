(** Data-collecting sensors (the monitor module's probes).

    A sensor observes one integer state variable of an object. Its
    {b sampling rate} is expressed as a period: [tick] actually samples
    only every [period]-th call (the paper's lock monitor samples the
    number of waiting threads "once during every other unlock
    operation", i.e. period 2). Sampling reads the underlying state through the
    simulated machine, so each sample costs virtual time; raising the
    rate buys fresher data at higher overhead — the paper's
    "Monitoring Cost vs. Amount of Information" tradeoff, which the
    sampling-rate ablation sweeps. *)

type t

val make : ?period:int -> ?overhead_instrs:int -> (unit -> int) -> t
(** [make read] is a sensor evaluating [read] on each sample.
    [period] defaults to 1 (every tick); [overhead_instrs] is the
    bookkeeping charged per actual sample (default 40 modeled
    instructions). *)

val tick : t -> int option
(** Count one instrumentation event; samples (and returns [Some v])
    when the event count reaches the period. Charges the sampling
    overhead only when a sample is taken. *)

val force : t -> int
(** Sample immediately, regardless of period. *)

val samples_taken : t -> int
