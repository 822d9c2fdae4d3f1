(** A single sanitizer finding, stamped with the virtual time and the
    name of the thread it concerns. *)

type category =
  | Race  (** confirmed data race (lockset empty and no happens-before) *)
  | Lock_order  (** deadlock potential: cycle in acquired-while-holding *)
  | Discipline  (** lock usage lint (double unlock, held at exit, ...) *)

type t = {
  category : category;
  rule : string;  (** short machine-matchable rule name, e.g. ["data-race"] *)
  time : int;  (** virtual timestamp of the witness *)
  thread : string;  (** name of the offending thread *)
  message : string;
}

val make :
  category:category -> rule:string -> time:int -> thread:string -> string -> t

val to_string : t -> string

val compare : t -> t -> int
(** Deterministic presentation order: time, then category, rule,
    thread, message. *)
