(** Adaptive cyclic barrier: spin-then-block arrival with the spin
    budget adapted from the observed inter-arrival spread.

    Arrival strategy is the barrier's analogue of a lock's waiting
    policy. A non-final arrival polls the barrier's generation word for
    up to the [arrival-spin-ns] attribute's budget, then falls back to
    blocking. The built-in monitor observes each completed cycle's
    inter-arrival spread (time from first to last arrival); the default
    policy widens the budget while arrivals are bunched tightly enough
    that spinning beats a deschedule/resume pair, and shrinks it toward
    pure blocking when the spread grows — the fixed {!Barrier} stays
    the zero-cost default. The feedback loop is closely coupled: it
    ticks once per completed cycle, in the releasing thread. *)

type t

val policy_spec :
  ?name:string ->
  ?spin_if_under:int ->
  ?block_if_over:int ->
  ?max_spin_ns:int ->
  unit ->
  Adaptive_core.Policy.Spec.t
(** The spread-driven spin-budget policy as a declarative spec
    (defaults match {!create}): configurations are the doubling budget
    ladder, [spin-more] while the arrival spread is at most
    [spin_if_under], [spin-less] at or beyond [block_if_over]. What
    {!create} runs and what the static checker inspects. *)

val create :
  ?node:int ->
  ?name:string ->
  ?period:int ->
  ?spin_if_under:int ->
  ?block_if_over:int ->
  ?max_spin_ns:int ->
  int ->
  t
(** [create n] is an adaptive barrier for [n] parties ([n >= 1]); the
    spin budget starts at 0 (pure blocking, like {!Barrier}).
    [period] is the sensor sampling period in completed cycles
    (default 1). The default policy steps the budget up (doubling, to
    at most [max_spin_ns], default ~614 us) when the observed spread is
    at most [spin_if_under] ns and down when at least [block_if_over]
    ns. The thresholds default to 800 us / 1.6 ms — bracketing the
    default machine's ~450 us deschedule/resume round trip, the cost a
    successful spin saves.

    Raises [Invalid_argument] when [spin_if_under >= block_if_over]: a
    spread in the overlap would satisfy both steps, so every sample
    would adapt — the thrash cycle the static checker flags. *)

val await : t -> unit
(** Block until all [n] parties have arrived; the last arrival wakes
    the blocked parties, resets the barrier and ticks the adaptive
    loop. *)

val spin_budget_ns : t -> int
(** Current arrival spin budget. *)

val spin_attr : t -> int Adaptive_core.Attribute.t
(** The [arrival-spin-ns] attribute, for external reconfiguration
    agents and ownership tests. *)

val loop : t -> Adaptive_core.Adaptive.t
(** The barrier's feedback loop (read its metrics). *)
