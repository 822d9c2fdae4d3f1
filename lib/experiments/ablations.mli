(** Ablations beyond the paper's tables: the design-choice studies
    DESIGN.md calls out.

    - {!schedulers}: the [MS93] client-server lock-scheduler comparison
      (FCFS vs Priority vs Handoff; priority should win, FCFS lose).
    - {!coupling}: closely-coupled (in-line) vs loosely-coupled
      (monitor thread + ring buffer) adaptation on a phased workload —
      quantifies the adaptation lag that made the paper build the
      customized lock monitor.
    - {!sampling}: monitor sampling-rate sweep (quality of adaptation
      vs monitoring overhead, §3).
    - {!threshold}: [Waiting-Threshold]/[n] sweep of [simple-adapt]
      (the paper's stated next research step).
    - {!phases}: adaptive vs static locks across contention phases
      (§2's "optimal waiting policy might differ during different
      phases").

    Every row of every study is an independent simulated machine, so
    each function fans its rows out across up to [domains] host cores
    ({!Engine.Runner}); results are independent of [domains]. *)

type sched_row = {
  sched : Locks.Lock_sched.kind;
  total_ns : int;
  mean_response_us : float;  (** submit-to-served latency (headline) *)
  server_wait_us : float;
  client_wait_us : float;
}

val schedulers : ?domains:int -> unit -> sched_row list

type coupling_row = {
  coupling : string;  (** "closely-coupled" or "loosely-coupled" *)
  total_ns : int;
  adaptations : int;
  max_lag_us : float;  (** observation staleness; 0 for closely-coupled *)
}

val coupling : ?domains:int -> unit -> coupling_row list

type sampling_row = {
  period : int;  (** sample every k-th unlock *)
  total_ns : int;
  samples : int;
  adaptations : int;
}

val sampling :
  ?domains:int ->
  periods:int list ->
  unit ->
  sampling_row list

type threshold_row = {
  waiting_threshold : int;
  n : int;
  total_ns : int;
  blocks : int;
  spin_probes : int;
}

val threshold :
  ?domains:int ->
  thresholds:int list ->
  ns:int list ->
  unit ->
  threshold_row list

type phase_row = {
  kind : Locks.Lock.kind;
  total_ns : int;
  adaptations : int;
  mean_wait_us : float;
}

val phases : ?domains:int -> unit -> phase_row list

type arch_row = {
  arch : string;  (** "NUMA" or "UMA" *)
  lock_impl : string;
  total_ns : int;
  remote_accesses : int;  (** inter-node memory accesses of the run *)
  mean_wait_us : float;
}

val architecture : ?domains:int -> unit -> arch_row list
(** [MS93]'s implementation-retargeting experiment: centralized spin vs
    local-spin (distributed) vs blocking vs active locks on the NUMA
    machine and its UMA variant. Local spinning should pay off only on
    NUMA. *)

type barrier_row = {
  barrier_impl : string;  (** "fixed always-block" / "fixed always-spin" / "adaptive" *)
  total_ns : int;
  barrier_adaptations : int;
  final_spin_ns : int;  (** arrival spin budget at the end of the run *)
}

val barriers : ?domains:int -> unit -> barrier_row list
(** Adaptive vs fixed barrier arrival strategies on a phased workload:
    balanced rounds (spin wins), a skewed-straggler middle phase
    (spinning starves the co-located straggler; block wins), balanced
    again. The adaptive barrier must reconfigure and beat the worst
    fixed strategy. *)

type advisory_row = {
  advisory_lock : string;
  total_ns : int;
  blocks : int;
  spin_probes : int;
  mean_wait_advisory_us : float;
}

val advisory : ?domains:int -> unit -> advisory_row list
(** Section 2's advisory-lock claim: on a workload of randomly short or
    long critical sections, the owner's advice (spin for short, sleep
    for long) should beat any fixed waiting policy. *)

type switch_row = {
  sw_point : string;  (** contention regime label *)
  sw_variant : string;  (** "fixed tas" / "fixed mcs" / "fixed blocking" / "adaptive" *)
  sw_total_ns : int;
  sw_mean_wait_us : float;
  sw_blocks : int;
  sw_spin_probes : int;
  sw_swaps : int;  (** committed implementation swaps (0 for pinned variants) *)
  sw_final_impl : string;  (** implementation at the end of the run *)
}

val switch_points : (string * int * int * int * int * int) list
(** The sweep grid: (label, workers, processors used, iterations,
    cs_ns, think_ns). The long-hold point runs two workers per
    processor, where spinning through a long ownership span starves
    the co-located holder. *)

val switch_one :
  ?machine:Butterfly.Config.t ->
  point:string ->
  workers:int ->
  processors:int ->
  iterations:int ->
  cs_ns:int ->
  think_ns:int ->
  variant:string ->
  fixed:Locks.Lock_core.impl option ->
  unit ->
  switch_row
(** One cell of the implementation-as-attribute ablation: [workers]
    threads hammering one switch lock for [iterations] critical
    sections of [cs_ns] with [think_ns] between entries, pinned to
    [fixed] (or adaptive when [None]). The unit the experiment-fleet
    [switch-lock] driver runs per config. *)

val switch_variants : (string * Locks.Lock_core.impl option) list
(** The ablation's variants: ["fixed tas"], ["fixed mcs"],
    ["fixed blocking"] (each pinned) and ["adaptive"] (the ladder). *)

val switch_locks : ?domains:int -> unit -> switch_row list
(** The implementation-as-attribute ablation ({!Locks.Lock_core}'s
    registered implementations):
    every contention regime of {!switch_points} under each pinned
    implementation and under the adaptive ladder. No pinned
    implementation wins everywhere; the adaptive lock must never be
    the loser. *)

val switch_gate : switch_row list -> string list
(** The acceptance gate over {!switch_locks} rows: the adaptive
    variant is never worse than the worst pinned variant at any sweep
    point (ties pass) and lands within 5% of
    the best pinned variant at the sweep extremes. Returns
    human-readable violations (empty = pass). *)
