(** Typed query views over a results store.

    The algebra is deliberately small: filter records, project a
    metric, then rank, aggregate or regression-compare. Queries parse
    from one line of text (the [repro view] argument):

    {v
    top 20 by mean_wait_us
    top 5 by total_ns where driver=csweep lock=spin
    mean total_ns group by driver
    count * group by kind
    regressions since a1b2c3d
    regressions since earliest tolerance 10
    list drivers
    v}

    Metric names match a record metric exactly or as a [.../NAME]
    suffix, so [mean_wait_us] finds both a csweep record's
    [mean_wait_us] and an ablation record's
    [moderate/adaptive/mean_wait_us].

    Rendering is deterministic: every ordering is total (ties broken
    by record identity), floats print via {!Jsonv.num_str}, and
    per-record work fans out through {!Engine.Runner.map}, so output
    bytes are identical at any [--domains] count. *)

type filter = {
  f_driver : string option;
  f_kind : string option;
  f_spec : string option;
  f_rev : string option;  (** prefix match *)
  f_config : (string * string) list;  (** config key = value, all must hold *)
}

type agg_op = Mean | Sum | Min | Max | Count

type group_key =
  | By_driver
  | By_kind
  | By_rev
  | By_spec
  | By_config of string

type t =
  | Top of int * string * filter  (** best-first ranking of a metric *)
  | Aggregate of agg_op * string * group_key option * filter
  | Regressions of string * float * filter
      (** [since rev] ([earliest]/[latest] allowed), tolerance in percent *)
  | Catalogue_of of [ `Drivers | `Kinds | `Revs | `Specs ]

val parse : string -> (t, string) result

val higher_is_better : string -> bool option
(** Metric polarity by name: [Some true] for rates ([..per_sec..],
    [..improvement..]), [Some false] for times/failure counts
    ([.._ns]/[.._us] suffixes, [..wait..], [..fail..], ...), [None]
    when the name says nothing (such metrics are skipped by
    regression detection and ranked descending by [top]). *)

val run : ?domains:int -> Store.record list -> t -> string
(** Execute against loaded records and render the result table. *)
