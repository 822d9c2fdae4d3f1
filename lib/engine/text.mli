(** String helpers shared by the libraries' hand-rolled JSON printers,
    the fleet store's JSON values and their substring tests, so one
    escaping rule decides the bytes of every artifact. *)

val json_escape : string -> string
(** JSON string-body escaping, without the surrounding quotes: the
    double quote, the backslash, newline, carriage return and tab get
    their two-character escapes, every other control character below
    0x20 becomes a six-character [u00XX] escape; all other bytes pass
    through. *)

val json_string_list : string list -> string
(** A JSON array of strings, elements separated by a comma and a space. *)

val contains : string -> string -> bool
(** [contains hay needle]: [needle] occurs in [hay] (always true for
    the empty needle). *)
