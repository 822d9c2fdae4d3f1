(** The data-race detector: Eraser-style locksets refined by a
    vector-clock happens-before pass, run offline over a {!Trace}.

    A pair of accesses to the same plain word is reported as a race
    only when {e both} tests fail: the threads hold no common lock
    around the accesses (lockset), and no chain of synchronization
    edges orders them (happens-before). The edges are the hard
    scheduler edges of {!Causality.Clocks} (fork → child start,
    finished thread → join, waker → wakee, including the wake-token
    variants) plus lock release → next acquire of the same lock.

    Exempt words — never reported: words registered with
    [Ops.A_sync_word] (primitive internals) or [Ops.A_relaxed_word]
    (intentionally racy), and any word ever touched by an atomic
    operation during the run ({!Trace.exempt}).

    Findings are deduplicated per (word, site pair, lock sets): a loop
    hitting the same racy pair every iteration produces one diagnostic
    carrying an occurrence count, stamped with the pair's first
    occurrence in trace order.

    Detector state is bounded by the number of {e live} threads: when
    a thread finishes, its vector clock collapses to a single snapshot
    (kept for join edges) and its pending tokens and lockset are
    dropped. *)

val run : names:(int -> string) -> Trace.t -> Diag.t list
(** Diagnostics in trace order. [names] maps a tid to the thread name
    used in messages. *)
