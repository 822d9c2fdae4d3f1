(** The simulator-throughput soak workload.

    Not a paper experiment: a deterministic event mill for measuring
    how many simulated events per second the {e host} sustains. Each
    round is ~90% single-runnable memory sweeps (the batched-charging
    fast path) and ~10% a two-thread spin-lock duel (the fused-probe
    general path), so the mix reflects both dispatch regimes. The
    virtual-time outcome — final time, event count, checksum — is a
    pure function of the spec, so any two runs (fast paths on or off,
    any host) must agree exactly; the benchmark's [soak] workload
    (perfbench) measures only how fast the host gets there. *)

type spec = {
  processors : int;
  array_words : int;  (** size of the swept array *)
  rounds : int;
  contended_iters : int;  (** lock/unlock pairs per contender per round *)
}

type result = {
  spec : spec;
  final_ns : int;  (** virtual completion time *)
  events : int;  (** simulation events executed *)
  checksum : int;  (** fold of every value read — the determinism witness *)
}

val default : spec
(** 4 processors, 64 words, 32 rounds, 8 contended pairs: ~10k events,
    sized for tests. *)

val with_rounds : int -> spec
(** [default] widened to 1024 words with 4 contended pairs: ~5.2k
    events per round, so [with_rounds 1_950] is a ~10M-event soak and
    [with_rounds 195] the CI-sized 1M variant. *)

val scenario : spec -> acc:int ref -> unit -> unit
(** The workload as a thunk for an externally owned simulator. *)

val run : spec -> result
(** Execute on a fresh machine: the paper machine narrowed to
    [spec.processors]. *)
