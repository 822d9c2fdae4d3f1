(* Flat machine state: the scheduler's hot per-processor and
   per-thread scalars as unboxed int arrays, plus the switchboard the
   zero-effect fast paths in [Ops] run against.

   One [t] belongs to one [Sched.t]. The scheduler publishes it to the
   running domain via {!current} for the duration of [Sched.run];
   [Ops] wrappers read it to decide, per operation, whether the
   current dispatch slice is in {e fast mode}, and whether the
   operation completes before the slice's {!limit}: the earliest
   virtual time at which the dispatcher would run anything but this
   thread. Such an operation is applied directly to these arrays
   instead of performing an effect. Everything here is plain mutable
   state; all synchronization discipline lives in [Sched]. *)

(* Thread status codes for the [status] array. *)
let st_ready = 0
let st_running = 1
let st_blocked = 2
let st_joining = 3
let st_finished = 4

type t = {
  mutable mem : Memory.t;
  mutable cfg : Config.t;
  mutable quantum : int;  (* [cfg.quantum_ns], [max_int] when None *)
  mutable max_events : int;
  mutable events : int;  (* the machine's canonical event count *)
  (* The dispatch slice in progress: set by the scheduler around every
     fiber resumption. [fast] is true only while the slice is eligible
     for direct charging (see [Sched.dispatch_thread]); [limit] is the
     slice's lookahead bound: an operation may be charged directly only
     if it completes strictly before it. *)
  mutable fast : bool;
  mutable limit : int;
  mutable tid : int;
  mutable pid : int;
  (* Per-processor clocks, indexed by pid. Fixed size. *)
  pnow : int array;
  busy : int array;
  slice : int array;
  last_tid : int array;
  (* Per-thread scalars, indexed by tid; grown by doubling. *)
  mutable status : int array;
  mutable tproc : int array;
  mutable prio : int array;
  mutable wake_at : int array;
  mutable cpu : int array;
  mutable penalty : int array;
  mutable work_left : int array;
  mutable tokens : int array;
  (* Batched counter accumulators: fast ops bump these; the scheduler
     folds them into the machine's [Engine.Counters] cells at the end
     of every slice, so counter totals are identical to the
     effect-per-op path at every observation point. *)
  mutable acc_events : int;
  mutable acc_read : int;
  mutable acc_write : int;
  mutable acc_atomic : int;
  (* The scheduler's access-bus emitter, [None] while the bus has no
     subscriber: a fast memory charge hands it the address and kind
     before advancing the clock, so subscribers see the same record at
     the same time as on the effect path. *)
  mutable on_access : (Memory.addr -> Memory.access -> unit) option;
}

let dummy_cfg = { Config.default with Config.processors = 1 }

let create ~(cfg : Config.t) ~mem =
  let p = cfg.Config.processors in
  let n = 64 in
  {
    mem;
    cfg;
    quantum = (match cfg.Config.quantum_ns with Some q -> q | None -> max_int);
    max_events = cfg.Config.max_events;
    events = 0;
    fast = false;
    limit = 0;
    tid = -1;
    pid = 0;
    pnow = Array.make p 0;
    busy = Array.make p 0;
    slice = Array.make p 0;
    last_tid = Array.make p (-1);
    status = Array.make n st_finished;
    tproc = Array.make n 0;
    prio = Array.make n 0;
    wake_at = Array.make n 0;
    cpu = Array.make n 0;
    penalty = Array.make n 0;
    work_left = Array.make n 0;
    tokens = Array.make n 0;
    acc_events = 0;
    acc_read = 0;
    acc_write = 0;
    acc_atomic = 0;
    on_access = None;
  }

(* Grow every per-thread array so [tid] is a valid index. *)
let ensure_thread st tid =
  let n = Array.length st.status in
  if tid >= n then begin
    let n' = Int.max (n * 2) (tid + 1) in
    let grow fill a =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    st.status <- grow st_finished st.status;
    st.tproc <- grow 0 st.tproc;
    st.prio <- grow 0 st.prio;
    st.wake_at <- grow 0 st.wake_at;
    st.cpu <- grow 0 st.cpu;
    st.penalty <- grow 0 st.penalty;
    st.work_left <- grow 0 st.work_left;
    st.tokens <- grow 0 st.tokens
  end

(* The machine state of the run currently executing on this domain.
   [Sched.run] swaps its machine in (saving and restoring the previous
   binding, so nested runs compose); outside any run the binding is a
   dummy with [fast = false], which routes every [Ops] wrapper to its
   effect — exactly the historical behaviour. Domain-local, not
   global: [Engine.Runner] executes machines on several domains
   concurrently. *)
let current : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      create ~cfg:dummy_cfg ~mem:(Memory.create dummy_cfg))

let get () = Domain.DLS.get current
let swap_in st =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current st;
  prev
let restore st = Domain.DLS.set current st

(* Global kill switches, for A/B determinism tests and benchmarks.
   [fast_paths]: may a dispatch slice enter fast mode at all (checked
   once per dispatch). [op_fusion]: may the fused [Ops] wrappers use
   their single-effect encoding (checked per call). Both default on;
   turning either off must not change any simulated outcome — the
   determinism suite asserts exactly that. *)
let fast_paths : bool Atomic.t = Atomic.make true
let op_fusion : bool Atomic.t = Atomic.make true

let set_fast_paths b = Atomic.set fast_paths b
let fast_paths_enabled () = Atomic.get fast_paths
let set_op_fusion b = Atomic.set op_fusion b
let op_fusion_enabled () = Atomic.get op_fusion
