(** The driver catalogue: what an experiment spec may ask for, and the
    one place a run becomes a record.

    Each driver names the axes it understands (with kinds and
    defaults) and knows how to execute one config — one point of a
    spec's cross product — returning a flat metric projection, the
    exact bytes of the legacy artifact that config stands for, the text
    its subcommand prints and whether its gate passed. [repro <cmd>] is
    a one-config run of driver [<cmd>]. {!validate} checks a spec
    against the catalogue {e before} anything runs, so a typo fails
    fast instead of three axes into a sweep. *)

type axis_kind =
  | Int  (** decimal integer *)
  | Enum of string list Lazy.t
      (** closed value set, built only when a value is checked *)
  | Text  (** any string *)

type axis = {
  ax_name : string;
  ax_kind : axis_kind;
  ax_default : string;  (** used when the spec omits the axis *)
}

type outcome = {
  o_metrics : (string * float) list;
  o_payload : string;  (** legacy-artifact bytes for this one config *)
  o_text : string;  (** what the subcommand prints before its artifact is written *)
  o_verdict : string;  (** what it prints after: the gate's verdict *)
  o_ok : bool;  (** whether the gate passed *)
}

type driver = {
  d_name : string;
  d_kind : string;  (** store artifact kind its records carry *)
  d_doc : string;
  d_legacy : string option;  (** legacy file name of a one-config run *)
  d_axes : axis list;
  d_run : lookup:(string -> string) -> outcome;
      (** [lookup axis] is total over [d_axes] (defaults filled in). *)
}

val find : string -> driver option

val validate : Spec.t -> (unit, string) result
(** Driver exists; every spec axis is declared by the driver; every
    value parses ([Int]) or is a member ([Enum]). *)

val run : driver -> (string * string) list -> outcome
(** Execute one expanded config (defaults applied for omitted axes).
    Assumes {!validate} passed. *)

val run_config :
  driver -> (string * string) list -> (string * float) list * string
(** {!run}, projected to (metrics, payload). *)

val record : ?spec:string -> driver -> (string * string) list -> outcome -> Store.record
(** The store record of one config's outcome. *)

val describe : unit -> string
(** Human-readable catalogue listing for [repro run --catalogue]. *)
