(** Shared trace ring buffer between application threads and a monitor
    thread.

    Producers (application threads executing instrumented operations)
    publish records; a single consumer (the monitor thread on its
    dedicated processor) drains them. Head/tail cursors live in
    simulated memory at the buffer's home node, so publishing from a
    remote node pays interconnect latency — the transport cost that
    makes the general-purpose monitor "too loosely coupled" for
    adaptive objects (paper §5.1).

    Overflow policy: the ring overwrites the oldest unread record and
    counts it as dropped (monitoring data is lossy by nature). *)

type 'a t

val create : home:int -> unit -> 'a t
(** A ring of 256 records. Must run inside a simulation. *)

val publish : 'a t -> 'a -> unit
(** Append a record: one atomic claim plus one write at the buffer's
    home node. Safe from any simulated thread. *)

val consume : 'a t -> 'a option
(** Take the oldest unread record, if any (single consumer): one read
    plus one write at the home node when a record is present. *)

val dropped : 'a t -> int
(** Records lost to overwriting. *)
