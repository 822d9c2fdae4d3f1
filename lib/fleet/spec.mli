(** Experiment specs: a concise JSON declaration of a cross-product
    sweep.

    A spec is one JSON object (a file may hold one object or an array
    of them):

    {v
    { "id": "smoke-csweep",
      "driver": "csweep",
      "axes": { "processors": [2, 4],
                "latency_ratio": [4, 12],
                "lock": ["spin", "adaptive"],
                "seed": [1] } }
    v}

    Every axis value list is swept as a cross product; axes the driver
    declares but the spec omits run at the driver's default. Validation
    against the driver catalogue happens in {!Catalogue.validate}. *)

type t = {
  sp_id : string;
  sp_driver : string;
  sp_axes : (string * string list) list;
      (** sorted by axis name; values canonicalized to strings in the
          order the spec listed them *)
}

val of_string : string -> (t list, string) result
(** Parse a spec document: one spec object or an array of them. *)

val of_file : string -> (t list, string) result

val expand : t -> (string * string) list list
(** The cross product, in a deterministic order: axes iterate sorted by
    name with the rightmost (alphabetically last) axis varying fastest,
    each axis's values in spec order. Each element is one config
    (axis, value) list, sorted by axis name. *)
