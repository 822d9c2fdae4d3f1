(** Binary min-heap priority queue with stable (FIFO) tie-breaking.

    The event queue at the heart of the discrete-event simulator. Keys
    are virtual timestamps (non-negative integers). Two entries with
    equal keys are popped in insertion order, which keeps simulations
    deterministic without requiring callers to invent tie-breakers.

    Values are stored in a flat ['a array] (no ['a option] boxing on
    the hot path), so creation takes a [dummy] value used to fill
    vacant slots. The dummy is never returned and a popped slot is
    immediately overwritten with it, so the queue retains no reference
    to values it no longer holds. *)

type 'a t
(** A mutable priority queue holding values of type ['a]. *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty queue with room for 64 entries; it
    grows automatically.
    [dummy] is a placeholder of the element type ([0], [""], a
    sentinel record, ...) filling unoccupied slots. *)

val add : 'a t -> key:int -> 'a -> unit
(** [add q ~key v] inserts [v] with priority [key]. O(log n),
    allocation-free outside of growth. *)

val pop_min : 'a t -> (int * 'a) option
(** [pop_min q] removes and returns the entry with the smallest key
    (ties: earliest inserted first), or [None] if empty. O(log n). *)

val pop_min_value_exn : 'a t -> 'a
(** The value {!pop_min} would return, without allocating the pair:
    the scheduler's allocation-free dispatch path. Raises
    [Invalid_argument] on an empty queue. *)

val peek_min_key : 'a t -> int
(** The smallest key present, or [max_int] when the queue is empty,
    without removing it. O(1). The scheduler polls this once per
    dispatch ("is the next fault timer due?"), so it must not box an
    option per iteration. *)

val size : 'a t -> int
(** Number of entries currently in the queue. *)

val is_empty : 'a t -> bool

val remove : 'a t -> ('a -> bool) -> 'a option
(** [remove q pred] extracts the first entry (in unspecified heap
    order) whose value satisfies [pred], restoring the heap property.
    O(n). Used by the controlled scheduler to force-dispatch a
    specific thread regardless of its queue position. *)


val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Iterate over entries in unspecified order (heap order). *)
