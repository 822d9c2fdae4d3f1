(** Serializable, seeded fault plans.

    A plan is a list of faults pinned to virtual-time instants. Plans
    are pure data: building, printing or parsing one touches no
    machine. {!Injector.install} arms a plan on a {!Butterfly.Sched}
    instance; because every fault fires off the machine's own virtual
    clock, the same plan produces the same perturbed execution
    bit-for-bit, on any [--domains] count, on any host.

    Plans round-trip through a compact spec string (one fault per
    [';']-separated field, [kind@time:key=value,...]), so a failing
    chaos run can dump the exact plan that broke it and a later session
    can replay it:

    {v
    mem-degrade@40000:node=3,factor=8,until=900000;kill@250000:tid=4
    v} *)

type fault =
  | Mem_degrade of { node : int; factor : int; until_ns : int }
      (** Multiply module [node]'s service and wire latency by
          [factor] until [until_ns] (a slow, not dead, module). *)
  | Mem_stuck of { node : int; until_ns : int }
      (** Module [node] answers nothing before [until_ns]: every
          access queues behind the stuck window. *)
  | Proc_stall of { proc : int; ns : int }
      (** Processor [proc] goes offline for [ns] of virtual time. *)
  | Thread_kill of { tid : int }
      (** Crash thread [tid]: no cleanup, locks stay held, joiners are
          woken. A no-op if the tid is unknown or already finished. *)
  | Lock_holder_delay of { lock : string; ns : int }
      (** The next thread to acquire lock [lock] (["*"] matches any
          lock) after the fault time is stalled [ns] at its next
          dispatch — a delayed critical section. One-shot. *)
  | Swap_stall of { obj : string; ns : int }
      (** The next thread to open an implementation-swap window on
          adaptive object [obj] (["*"] matches any; matched against
          [A_adaptation] swap-begin annotations) after the fault time
          is stalled [ns] mid-swap — a drain that blows its deadline,
          or a freeze that ages into abandoned-swap recovery.
          One-shot. *)
  | Swap_kill of { obj : string }
      (** The next swapper on [obj] after the fault time is killed
          inside its swap window: the freeze is left behind for the
          waiters' recovery path. One-shot. *)

type event = { at_ns : int; fault : fault }

type t = event list
(** Sorted by [at_ns] (stable for equal times). *)

val to_string : t -> string
(** Compact spec string; [""] for the empty plan. *)

val of_string : string -> t
(** Parse a spec string (whitespace around fields is ignored). Raises
    [Failure] with a description on malformed input. Round-trips with
    {!to_string}. *)

val generate :
  ?swap_faults:bool -> seed:int -> cfg:Butterfly.Config.t -> horizon_ns:int -> unit -> t
(** A small random plan (1–3 faults) drawn from a {!Engine.Rng} stream
    seeded with [seed]: fault times land in
    [\[horizon_ns/10, horizon_ns\]], nodes and processors are drawn
    from [cfg.processors], kill targets from low tids, and
    holder-delays use the ["*"] wildcard. Equal seeds and configs give
    equal plans. [swap_faults] (default false, so plans from
    pre-existing seeds are unchanged) adds the swap-window kinds
    ({!Swap_stall}/{!Swap_kill}) to the draw. *)
