(** Minimal JSON values for the experiment fleet: parse experiment
    specs and store records, print them back with {e stable bytes}.

    The repo deliberately has no JSON dependency; artifacts are written
    by hand-rolled printers. The fleet store needs the reverse
    direction too (reopen, query, regression-compare), so this module
    provides the smallest self-contained value type + recursive-descent
    parser + canonical printer that round-trips those documents.

    Stability contract: {!to_string} depends only on the value (objects
    print keys in their stored order — {!canonical} sorts them), and
    {!num_str} is idempotent through a parse
    ([num_str (num (parse (num_str v))) = num_str v]), so
    [to_string (parse (to_string v)) = to_string v] for every value
    this library produces. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error). Errors carry a byte offset. *)

val to_string : t -> string
(** Compact rendering: no spaces, object keys in stored order. *)

val canonical : t -> t
(** Sort object keys recursively (arrays keep their order). *)

val num_str : float -> string
(** Canonical float rendering: shortest of [%.12g]/[%.17g] that parses
    back to the same float; integers print without a decimal point.
    [nan]/[inf] print as [null]-safe ["0"] — callers should not feed
    them. *)

(** {1 Accessors} (all total) *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val arr : t -> t list option
val obj : t -> (string * t) list option
