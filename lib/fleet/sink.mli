(** The one place artifacts are written.

    Every record the repro CLI produces — a [repro run] batch, a
    one-config subcommand, or an artifact handed to a
    {!Experiments.Report} [emit] hook — goes through a sink. The sink
    appends records to the store and writes the legacy artifact file
    {e verbatim from the record's payload bytes}, so store records and
    legacy files cannot drift apart.

    [domains] must never appear in a record's config: records describe
    the experiment, not the host parallelism that computed it, so stores
    produced at different [--domains] stay byte-identical. *)

type t = {
  store : string option;  (** JSONL store to append to *)
  csv_dir : string option;  (** where legacy artifact files go *)
}

val append : t -> Store.record list -> unit
(** Append a batch to the store (one write); no legacy file. *)

val write : t -> legacy:string -> Store.record -> string option
(** Append the record and, when [csv_dir] is set, write its payload to
    [csv_dir/legacy], creating missing parent directories. Returns the
    path written. *)

val hook :
  t ->
  driver:string ->
  kind:string ->
  config:(string * string) list ->
  Experiments.Report.emit
(** A {!Experiments.Report.emit} hook: each artifact becomes a record of
    [driver]/[kind] whose config is [config] plus [artifact=NAME],
    written through {!write} with legacy file [NAME]. *)

val resolve_store :
  flag:string option -> env:string option -> csv_dir:string option -> string option
(** The store a command appends to: the [--store] [flag], else [env]
    (the value of [$REPRO_STORE], ignored when empty), else
    [csv_dir/store.jsonl], else none. *)
