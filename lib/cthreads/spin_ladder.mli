(** Shared spec builder for doubling spin-budget ladders.

    The adaptive barrier and semaphore both adapt a nanosecond spin
    budget over the same shape of automaton: configurations are the
    doubling ladder reachable from the initial budget (0, 2 probe gaps,
    then x2 up to a cap), with a [spin-more] step while the metric sits
    at or under [spin_if_under] and a [spin-less] step at or over
    [block_if_over]. This module builds that automaton as a
    {!Adaptive_core.Policy.Spec} so both objects run the same data
    the static checker inspects. *)

val spec :
  name:string ->
  kind:string ->
  attribute:string ->
  metric:string ->
  spin_if_under:int ->
  block_if_over:int ->
  step_up:(int -> int) ->
  step_down:(int -> int) ->
  max_spin:int ->
  int ->
  Adaptive_core.Policy.Spec.t
(** [spec ... init] has one config per budget reachable from [init]
    under [step_up]/[step_down], a [spin-more]
    transition (metric in [[0, spin_if_under]]) from every config below
    [max_spin], and a [spin-less] transition (metric at least
    [block_if_over]) from every nonzero config; the spin-more step is
    tried first, matching the pre-IR closures' if/else-if order. *)
