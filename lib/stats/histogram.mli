(** Logarithmic-bucket histograms for latency distributions.

    Lock wait times span four orders of magnitude (microseconds of
    spinning to milliseconds of queued handoffs), so buckets grow
    geometrically. Used by the benchmark harness to report wait-time
    percentiles next to the paper's means. *)

type t

val create : unit -> t
(** 100 ns to 10 s, 8 buckets per decade. Values outside the range
    clamp into the first/last bucket. *)

val add : t -> int -> unit
(** Record one (non-negative) observation. *)

val summary : t -> string
(** One line: count, mean, p50/p90/p99, max — in microseconds; each
    percentile is the upper bound of the bucket holding that rank,
    capped at the largest sample. ["no samples"] when empty. *)
