(* Calibration notes (against Config.default: 62 ns/instr, local
   read/write 600/550 ns, atomic extra 900 ns, so a local test-and-set
   costs 2050 ns):

   - atomior lock op     = 463 instrs + TAS              ~ 30.76 us (paper 30.73)
   - spin/adaptive lock  = 625 instrs + TAS              ~ 40.80 us (paper 40.79)
   - blocking lock op    = 1396 instrs + TAS             ~ 88.60 us (paper 88.59)
   - spin unlock         = 72 instrs + write             ~  5.01 us (paper 4.99)
   - blocking unlock     = 954 instrs + guard TAS + 2W   ~ 62.30 us (paper 62.32)
   - adaptive unlock     = 775 instrs + write + sampling ~ 50.1  us (paper 50.07)
   - configure (waiting) = 140 instrs + 1R 1W            ~  9.83 us (paper 9.87)
   - configure (sched)   = 157 instrs + 5W               ~ 12.48 us (paper 12.51)
   - acquisition         = 463 instrs + TAS              ~ 30.76 us (paper 30.75)
   - monitor (one var)   = 1055 instrs + 1R              ~ 66.01 us (paper 66.03;
     this is the general-purpose monitor's sampling path — the
     customized closely-coupled lock monitor is far cheaper, which is
     precisely why the paper builds it). *)

type profile = {
  lock_overhead_instrs : int;
  unlock_overhead_instrs : int;
  block_path_instrs : int;
  unlock_queue_check : bool;
}

let atomior =
  {
    lock_overhead_instrs = 463;
    unlock_overhead_instrs = 20;
    block_path_instrs = 0;
    unlock_queue_check = false;
  }

let spin =
  {
    lock_overhead_instrs = 625;
    unlock_overhead_instrs = 72;
    block_path_instrs = 0;
    unlock_queue_check = false;
  }

let backoff = spin

let blocking =
  {
    lock_overhead_instrs = 1396;
    unlock_overhead_instrs = 954;
    block_path_instrs = 320;
    unlock_queue_check = true;
  }

let combined =
  {
    lock_overhead_instrs = 625;
    unlock_overhead_instrs = 500;
    block_path_instrs = 320;
    unlock_queue_check = true;
  }

let reconfigurable =
  {
    lock_overhead_instrs = 625;
    unlock_overhead_instrs = 775;
    block_path_instrs = 320;
    unlock_queue_check = true;
  }

(* MCS-style queue lock: spin-lock entry overhead plus a handoff that
   costs one remote write into the waiter's local module; the unlock
   path always consults the registration queue. *)
let mcs =
  {
    lock_overhead_instrs = 625;
    unlock_overhead_instrs = 120;
    block_path_instrs = 0;
    unlock_queue_check = true;
  }

let acquisition_instrs = 463

let configure_waiting_policy =
  Adaptive_core.Cost.make ~reads:1 ~writes:1 ~instrs:140 ()

let configure_scheduler = Adaptive_core.Cost.make ~writes:5 ~instrs:157 ()

(* Implementation hot-swap (Table-8-style reconfiguration): the freeze
   and commit writes plus the drain bookkeeping — not counting the
   per-waiter kick writes, which the protocol performs (and pays for)
   explicitly. *)
let swap_implementation = Adaptive_core.Cost.make ~reads:2 ~writes:3 ~instrs:420 ()
let monitor_sample_instrs = 1055
