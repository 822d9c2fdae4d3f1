(** Machine configuration: the cost model of the simulated multiprocessor.

    All times are in virtual nanoseconds. The default configuration is
    calibrated to the 32-node BBN Butterfly GP1000 of the paper: 68020
    processors around 16 MHz (so roughly 60 ns per instruction), local
    memory references well under a microsecond, remote references a few
    microseconds through the butterfly switch, and thread-package
    operations costing tens of microseconds (the paper's Tables 4–8).

    The simulator charges three kinds of cost:
    - memory access latency (local/remote × read/write/atomic),
    - pure computation ([Ops.work]), expressed by clients either in
      nanoseconds or in instruction counts via [instr_ns],
    - scheduling overheads (context switch, block, unblock, fork). *)

type t = {
  processors : int;  (** number of processors (= memory nodes) *)
  instr_ns : int;  (** cost of one modeled instruction (ns) *)
  local_read_ns : int;  (** read from the local memory module *)
  local_write_ns : int;
  remote_read_ns : int;  (** read through the interconnect *)
  remote_write_ns : int;
  atomic_extra_ns : int;
      (** extra cost of a read-modify-write over read+write at the module *)
  switch_ns : int;  (** context switch between two threads on a processor *)
  block_ns : int;  (** descheduling a thread that blocks *)
  unblock_ns : int;  (** making a blocked thread runnable (charged to waker) *)
  wakeup_latency_ns : int;
      (** delay before a woken thread may first run on its processor *)
  fork_ns : int;  (** cost of creating a thread (charged to parent) *)
  join_ns : int;  (** cost of reaping a finished thread *)
  yield_ns : int;
  contention : bool;
      (** when true, memory modules serialize concurrent accesses *)
  module_service_ns : int;
      (** memory-module occupancy per access when [contention] is on *)
  quantum_ns : int option;
      (** optional preemption quantum: long [Ops.work] spans are sliced
          to this length so sibling threads on the processor interleave *)
  max_events : int;  (** safety valve: abort after this many events *)
  seed : int;  (** seed of the simulation's internal RNG stream *)
}

val default : t
(** GP1000-like machine: 32 processors, 62 ns/instruction, 600/550 ns
    local read/write, 4000/3800 ns remote, contention on, and a 1 ms
    preemption quantum (so a spinning thread cannot starve its
    processor's siblings forever). *)

val with_processors : int -> t -> t
(** [with_processors p cfg] is [cfg] resized to [p] processors. *)

val instrs : t -> int -> int
(** [instrs cfg n] is the virtual-nanosecond cost of executing [n]
    modeled instructions. *)

val uma : t -> t
(** A UMA variant: remote costs equal local costs (used by
    architecture-retargeting ablations). *)
