(** Append-only on-disk results store.

    One line per completed run, each line one canonical JSON object
    (JSONL). A record ties together provenance (git revision, host),
    identity (spec id, driver, config and its hash), the artifact kind
    it belongs to (CHAOS, OBJECTS, ...), a flat metric projection for
    queries, and the {e exact} bytes of the legacy artifact it stands
    for. Serialization is byte-stable: {!to_line} depends only on the
    record value, so stores produced at [--domains 1] and [--domains 4]
    from the same runs are byte-identical. *)

type record = {
  r_schema : int;  (** record format version; this library writes 1 *)
  r_rev : string;  (** git revision the run was produced at *)
  r_host : string;  (** hostname, for same-host baseline lookup *)
  r_spec : string;  (** spec id; [""] for one-config subcommand runs *)
  r_driver : string;  (** catalogue driver name ([fig1]/[tsp] for figure CSVs) *)
  r_kind : string;  (** artifact kind: CHAOS, ANALYSIS, FIG, ... *)
  r_config : (string * string) list;  (** axis values, sorted by key *)
  r_hash : string;  (** {!config_hash} of [r_driver] + [r_config] *)
  r_metrics : (string * float) list;  (** flat metric projection, sorted by key *)
  r_payload : string;  (** exact bytes of the legacy artifact *)
}

val make :
  ?spec:string ->
  ?rev:string ->
  ?host:string ->
  driver:string ->
  kind:string ->
  config:(string * string) list ->
  metrics:(string * float) list ->
  payload:string ->
  unit ->
  record
(** Build a record: sorts [config] and [metrics], computes the config
    hash. [rev] defaults to {!Experiments.Perf.git_rev}, [host] to
    [Unix.gethostname]. *)

val config_hash : driver:string -> (string * string) list -> string
(** 16-hex-digit FNV-1a-64 over the driver name and the {e sorted}
    [k=v] pairs — independent of the field order callers use. *)

val to_line : record -> string
(** One-line canonical JSON (alphabetical keys, no newline). *)

val of_line : string -> (record, string) result
(** Inverse of {!to_line}. Rejects records whose [schema] field is not
    the integer this library writes, and records missing required
    fields, so stores written by a future format are refused rather
    than misread. *)

val append : path:string -> record list -> unit
(** Append records to the store at [path] in a single write, creating
    parent directories and the file as needed. A final line with no
    trailing newline, left by an earlier append cut short, is ended
    with one when it is a complete record and removed otherwise, so
    [load] keeps what it returned before. *)

val mkdirs : string -> unit
(** Create a directory and any missing parents. *)

val load : path:string -> (record list, string) result
(** All records in file order. A missing file is an empty store; a
    malformed or unknown-schema line is an error naming its line
    number, except a final line with no trailing newline (an append
    cut short by a crash), which is skipped and reported on stderr. *)
