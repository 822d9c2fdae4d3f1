(** Predictive analysis: findings reachable in a {e reordering} of the
    observed run.

    Where the observed-trace detectors ({!Race}, {!Lock_order}) report
    what the schedule that actually ran exposed, this pass drives the
    weak causality engine ({!Causality}) over the trace and reports
    pairs of operations that some legal reordering can bring into
    conflict — races whose accesses happened to be separated in time,
    lock-order deadlocks whose nestings never overlapped, and lost
    wakeups where the observed schedule delivered the wakeup in time.

    Every prediction carries concrete, re-findable coordinates (thread,
    per-thread occurrence index of the access / request / block point),
    which is what {!Witness} uses to synthesize a steering plan and
    replay the prediction into a machine-checked schedule. Predictions
    are {e candidates}: zero false positives holds for the Confirmed
    set after witness replay, not for this list. *)

type key = Trace.key

type site = {
  s_tid : int;
  s_time : int;
  s_idx : int;  (** position in the analyzed trace *)
  s_nth : int;  (** 1-based count of this thread's accesses to the word *)
  s_write : bool;
  s_locks : (key * string) list;  (** locks held, innermost first *)
}

type race_prediction = {
  r_word : key;
  r_first : site;  (** in trace order *)
  r_second : site;
  mutable r_count : int;  (** occurrences of this (site pair, lock sets) *)
}

type req_site = {
  q_tid : int;
  q_time : int;
  q_idx : int;
  q_nth : int;  (** 1-based count of this thread's requests of the lock *)
  q_lock : key;
  q_lock_name : string;
  q_comp : int;
  q_snap : int array;
  q_holding : (key * string) list;
}

type deadlock_prediction = { d_a : req_site; d_b : req_site }
(** [d_a] (earlier in the trace) requests lock L while holding H;
    [d_b] requests H while holding L; the requests are weakly
    unordered and share no gate lock. *)

type lost_wakeup_prediction = {
  lw_lock : key;
  lw_lock_name : string;
  lw_victim : int;
  lw_victim_time : int;
  lw_victim_block_nth : int;  (** 1-based count of the victim's block points *)
  lw_waker : int;
  lw_waker_time : int;
  lw_waker_req_nth : int;  (** nth request of [lw_lock] by the waker *)
}

type swap_fault =
  | Sw_lost_waiter
      (** a sleeping waiter was still parked when the swap committed:
          the kick missed it, so the committed implementation has no
          record of it and nothing will ever wake it *)
  | Sw_double_grant
      (** a thread acquired the lock while another thread's acquire
          was still unreleased: a grant escaped the swap window *)

type swap_prediction = {
  sw_fault : swap_fault;
  sw_obj : string;  (** the adaptation object's name (= the lock's) *)
  sw_lock : key;
  sw_victim : int;  (** the lost sleeper, or the second grantee *)
  sw_victim_time : int;  (** when it blocked / when it acquired *)
  sw_victim_block_nth : int;
      (** 1-based count of the victim's block points (lost waiter) *)
  sw_victim_req_nth : int;  (** nth request of the lock by the victim *)
  sw_other : int;  (** the committing swapper, or the first holder *)
  sw_time : int;  (** the commit / the overlapping acquire *)
  sw_label : string;  (** the swap's from->to label, when known *)
}
(** A swap-window finding: the implementation hot-swap windows a
    switch lock announces with [A_adaptation] (kind ["lock-impl"])
    annotations, checked for the two protocol-fatal outcomes. Unlike
    the reordering rules these fire on the observed schedule itself;
    they are still candidates until {!Witness} replays them (a
    timed-out request followed by an unrelated block point can alias a
    sleeping waiter — witness replay screens such candidates out). *)

type prediction =
  | Race of race_prediction
  | Deadlock of deadlock_prediction
  | Lost_wakeup of lost_wakeup_prediction
  | Swap_window of swap_prediction

val rule : prediction -> string
(** ["predicted-race"], ["predicted-deadlock"],
    ["predicted-lost-wakeup"], ["predicted-swap-lost-waiter"] or
    ["predicted-swap-double-grant"]. *)

val describe : names:(int -> string) -> prediction -> string

val run : Trace.t -> prediction list
(** Analyze a recorded trace. Deterministic: same trace, same
    predictions in the same order (races in discovery order, then
    deadlocks, then lost wakeups, then swap-window findings). *)
