(** Parallel experiment engine: fan independent simulations out across
    host cores ([Domain]s) and merge their results in input order.

    Every simulation in this repository is an independent,
    deterministic run over its own machine state, so a batch of them
    is embarrassingly parallel: [map f inputs] yields exactly the list
    [List.map f inputs] regardless of the domain count, only faster.
    Work distribution uses a fixed-size domain pool claiming chunks of
    the input off one atomic counter (no work stealing); results land
    in a slot per input, so output order — and therefore report and
    CSV bytes — never depends on scheduling.

    Tasks must be self-contained: no shared mutable state, no printing
    (render into a buffer and return it instead). Exceptions raised by
    a task are re-raised in the caller, first failing input first.

    Nested calls degrade to sequential execution: a task that itself
    calls [map] runs its sub-tasks inline, so composed parallel stages
    never oversubscribe the host. *)

val set_default_domains : int -> unit
(** Set the process-wide default used when [?domains] is omitted
    (clamped to at least 1). The CLI [--domains] flag lands here. *)

val default_domains : unit -> int
(** The current default: the value of {!set_default_domains} if one
    was set, otherwise [Domain.recommended_domain_count ()]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f inputs] is [List.map f inputs] computed by up to
    [domains] domains (default {!default_domains}; the calling domain
    counts as one). [~domains:1] runs strictly sequentially, in input
    order, on the calling domain — bit-for-bit today's behaviour. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array variant of {!map}. *)
