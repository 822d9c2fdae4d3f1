(** Figure 1: application execution time vs critical-section length for
    pure spin, pure blocking, and combined(1/10/50) locks. *)

type point = { cs_ns : int; total_ns : int }

type curve = { kind : Locks.Lock.kind; points : point list }

val run : ?domains:int -> unit -> curve list
(** The {!Workloads.Csweep.default} sweep over eight critical-section
    lengths, 5 µs to 800 µs. Its grid cells run in parallel across up to [domains] host
    cores (default {!Engine.Runner.default_domains}); output is
    independent of [domains]. *)

val of_sweep : (Locks.Lock.kind * (int * Workloads.Csweep.result) list) list -> curve list
(** The curves of a {!Workloads.Csweep.sweep} grid, one per kind: how
    {!run} builds the figure, applicable to any grid. *)

val crossover_summary : curve list -> string
(** A textual check of the figure's claims: spin wins for short
    sections, blocking for long ones, combined(10) beats combined(1)
    somewhere, combined(50) loses to combined(10) somewhere. *)

val to_plot : curve list -> string
(** ASCII rendering of the figure. *)

val csv_string : curve list -> string
(** The CSV rendering of the figure. *)
