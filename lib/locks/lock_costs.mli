(** Calibrated per-kind overheads of the lock package.

    The paper's Tables 4–8 report whole-operation latencies on the
    GP1000 (68020 at roughly 16 MHz): those figures include the thread
    package's procedure and registration overheads, which dominate the
    raw memory-access times. Each profile below states those overheads
    in modeled instructions; together with the memory accesses each
    operation actually performs they reproduce the magnitude and —
    more importantly — the ordering of the paper's tables:
    atomior < spin = adaptive < blocking for Lock, and
    spin < adaptive < blocking for Unlock. A {!Lock_core} lock charges
    its current implementation's profile: its kind's on the
    centralized word, else [spin] (TAS), [mcs] or [blocking]. *)

type profile = {
  lock_overhead_instrs : int;
      (** charged on every lock call (call + registration component) *)
  unlock_overhead_instrs : int;
  block_path_instrs : int;
      (** extra bookkeeping when a thread takes the sleeping path *)
  unlock_queue_check : bool;
      (** whether unlock must inspect the waiter queue (blocking-capable
          locks pay this even when uncontended) *)
}

val atomior : profile
(** The bare hardware primitive wrapper (Table 4's first row). *)

val spin : profile
val backoff : profile
val blocking : profile
val combined : profile
val reconfigurable : profile
(** Mutable-policy locks, the adaptive ones included. *)

val mcs : profile
(** MCS-style queue lock: spin-lock entry overhead; the handoff's one
    remote write into the waiter's local module is charged by the
    protocol itself. *)

(** {1 Configuration-operation costs (Table 8)} *)

val acquisition_instrs : int
(** Explicit attribute-ownership acquisition (on top of its
    test-and-set). *)

val configure_waiting_policy : Adaptive_core.Cost.t
(** 1R 1W plus procedure overhead. *)

val configure_scheduler : Adaptive_core.Cost.t
(** Five writes (three submodules, set flag, reset flag) plus
    overhead. *)

val monitor_sample_instrs : int
(** Bookkeeping per monitor sample (on top of reading the sensed
    word). *)

val swap_implementation : Adaptive_core.Cost.t
(** Implementation hot-swap ({!Lock_core.swap_to}): freeze/commit writes
    plus drain bookkeeping, excluding the per-waiter kick writes the
    protocol performs explicitly. *)
