(** Adaptive counting semaphore: spin-then-block acquire with the spin
    budget adapted from observed queue depth.

    An acquirer that finds no permit polls the permit word for up to
    the [acquire-spin-ns] attribute's budget (retrying the locked take
    when the word looks positive) before queuing and blocking. The
    built-in monitor samples the blocked-waiter count at release time;
    the default policy widens the budget while releases find an empty
    queue (permits turn over quickly, so waits are short) and shrinks
    it toward pure blocking when a standing queue forms. The fixed
    {!Semaphore} stays the zero-cost default. *)

type t

val policy_spec : ?name:string -> unit -> Adaptive_core.Policy.Spec.t
(** The queue-depth-driven spin-budget policy as a declarative spec:
    [spin-more] on an empty queue, [spin-less] at a depth of 2 or
    more. What {!create} runs and what the static checker
    inspects. *)

val create : ?node:int -> ?name:string -> int -> t
(** [create n] starts with [n] permits ([n >= 0]) and a spin budget of
    0 (pure blocking, like {!Semaphore}). The sensor samples every
    other release. *)

val acquire : t -> unit
(** Take a permit, spin-then-blocking until one is available. *)

val try_acquire : t -> bool
(** Take a permit iff one is immediately available. *)

val release : t -> unit
(** Return a permit (handed directly to the oldest waiter, if any).
    Ticks the adaptive loop. *)

val spin_budget_ns : t -> int
