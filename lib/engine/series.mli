(** Growable time series: (virtual timestamp, value) samples.

    Used by lock tracing (Figures 4–9 plot the number of waiting
    threads over time), monitor modules, and the workload harness.
    Timestamps are virtual nanoseconds and must be appended in
    non-decreasing order; values are floats. *)

type t

val create : name:string -> unit -> t
(** Fresh empty series with room for 64 samples; it grows
    automatically. [name] labels CSV columns and plots. *)

val name : t -> string

val add : t -> t:int -> v:float -> unit
(** Append a sample. Raises [Invalid_argument] if [t] is smaller than
    the previous sample's timestamp (series must be time-ordered). *)

val length : t -> int

val max_value : t -> float option

val time_weighted_mean : t -> float option
(** Mean of the value weighted by the time it was held, treating each
    sample as holding until the next sample's timestamp (the plain mean
    when every sample shares one timestamp). [None] when fewer than two
    samples. *)

val resample : t -> buckets:int -> (int * float) array
(** [resample s ~buckets] reduces the series to [buckets] points by
    averaging samples inside equal-width time windows spanning the
    series; empty windows repeat the previous value. Used to render
    compact figures from long traces. *)

val csv_string : t list -> string
(** The CSV rendering of series sharing one file: a header row
    [time,name1,name2...] followed by the union of sample times
    (missing values carried forward, empty until first sample). *)
