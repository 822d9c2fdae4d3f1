(** Paper-style text tables.

    Renders aligned monospace tables for the benchmark harness output
    (one per paper table, with a paper-value column next to the
    measured one). *)

type t

val create : headers:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] when the arity differs from the
    headers. *)

val add_rows : t -> string list list -> unit

val render : ?title:string -> t -> string
(** Box-drawn table. Numeric-looking cells are right-aligned, others
    left-aligned. *)

val ms_of_ns : int -> string
val pct : float -> string
