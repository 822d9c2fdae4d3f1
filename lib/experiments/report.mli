(** Rendering of every experiment as paper-style text.

    Each [print_*] function runs the experiment and writes a formatted
    paper-vs-measured table (or figure) to the given formatter; a
    section that produces an artifact (a figure CSV, a result JSON)
    hands it to its [emit] hook. These are shared by the [repro] CLI,
    the driver catalogue and the benchmark. *)

val print_lock_table :
  Format.formatter -> title:string -> paper:Paper.lock_op_row list -> Lock_tables.row list -> unit

val print_table4 : unit -> unit
val print_table5 : unit -> unit
val print_table6 : unit -> unit
val print_table7 : unit -> unit
val print_table8 : unit -> unit
(** Tables 4–8 on standard output. *)

type emit = name:string -> metrics:(string * float) list -> payload:string -> unit
(** Artifact hook: called once per produced artifact with its legacy
    file name, a flat metric projection, and the {e exact} payload
    bytes. The repro CLI points this at [Fleet.Sink], which stores the
    record and writes the legacy file from those same bytes. *)

val print_fig1 : ?out:Format.formatter -> ?emit:emit -> ?domains:int -> unit -> unit

val print_tsp : ?emit:emit -> ?spec:Tsp.Parallel.spec -> unit -> unit
(** Tables 1–3 plus Figures 4–9 from one set of runs, on standard
    output; each figure series is emitted as [figN.csv]. *)

val print_schedulers : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_coupling : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_sampling : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_threshold : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_phases : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_advisory : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_architecture : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_barriers : ?out:Format.formatter -> ?domains:int -> unit -> unit

val print_switch_locks : ?out:Format.formatter -> ?emit:emit -> ?domains:int -> unit -> bool
(** The implementation-as-attribute ablation ({!Ablations.switch_locks})
    as a table plus its acceptance gate; emits
    [ABLATION_LOCKS_results.json] (byte-identical at any [domains]).
    Returns whether the gate passed. *)

val print_objects :
  ?out:Format.formatter ->
  ?emit:emit ->
  ?spec:Workloads.Sync_objects.spec ->
  ?only:string ->
  ?domains:int ->
  unit ->
  unit
(** Run the sync-objects workload ([spec], default
    {!Workloads.Sync_objects.default}) and dump the adaptive-object
    registry as a table; emits [OBJECTS_results.json]
    ({!Adaptive_core.Registry.to_json} — byte-identical at any
    [domains]). [only] restricts the dump (and its JSON) to the object
    with that registry name. *)
