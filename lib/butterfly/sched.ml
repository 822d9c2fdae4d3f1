exception Deadlock of string
exception Event_limit_exceeded
exception Thread_crash of string * exn
exception Abort_requested of string

type abort_reason =
  | Deadlocked of string
  | Event_limit
  | Crashed of string * exn
  | Stop_requested of string

type outcome = Completed | Aborted of { reason : abort_reason; diagnostics : string }

let abort_reason_message = function
  | Deadlocked msg -> "deadlock: " ^ msg
  | Event_limit -> "event limit exceeded"
  | Crashed (name, e) ->
    Printf.sprintf "thread %s crashed: %s" name (Printexc.to_string e)
  | Stop_requested msg -> "abort requested: " ^ msg

type event_kind =
  | Ev_fork
  | Ev_switch
  | Ev_preempt
  | Ev_block
  | Ev_wakeup
  | Ev_token
  | Ev_token_use
  | Ev_join
  | Ev_finish

let event_kind_name = function
  | Ev_fork -> "fork"
  | Ev_switch -> "switch"
  | Ev_preempt -> "preempt"
  | Ev_block -> "block"
  | Ev_wakeup -> "wakeup"
  | Ev_token -> "token"
  | Ev_token_use -> "token-use"
  | Ev_join -> "join"
  | Ev_finish -> "finish"

type event = { time : int; proc : int; tid : int; kind : event_kind; other : int }

type access = {
  access_time : int;
  access_proc : int;
  access_tid : int;
  access_addr : Memory.addr;
  access_kind : Memory.access;
}

type annot = {
  annot_time : int;
  annot_proc : int;
  annot_tid : int;
  annotation : Ops.annotation;
}

type rmw = Rmw_or | Rmw_add | Rmw_swap

(* A thread's reified suspended operation. The memory-op constructors
   defer the actual word mutation to dispatch time, i.e. the global
   virtual-time order, without allocating a closure per operation —
   the payload lives in the constructor's flat fields. [P_none] marks
   "not suspended" (no option boxing); [P_start] carries a
   not-yet-started thread's body.

   The [P_probe_*]/[P_hint_*] constructors stage the fused operations
   (Ops.E_lock_probe / Ops.E_read_hint): each dispatch advances the
   sequence by exactly one charge, re-suspending the same continuation,
   so the fused encoding produces the same dispatches, the same
   intermediate machine states and the same memory linearization points
   as the decomposed effects it replaces. *)
type pending =
  | P_none : pending
  | P_start : (unit -> unit) -> pending
  | P_unit : (unit, unit) Effect.Deep.continuation -> pending
  | P_value : ('a, unit) Effect.Deep.continuation * 'a -> pending
  | P_read : (int, unit) Effect.Deep.continuation * Memory.addr -> pending
  | P_write : (unit, unit) Effect.Deep.continuation * Memory.addr * int -> pending
  | P_rmw : (int, unit) Effect.Deep.continuation * rmw * Memory.addr * int -> pending
  | P_cas : (bool, unit) Effect.Deep.continuation * Memory.addr * int * int -> pending
  | P_probe_tas :
      (Ops.probe_result, unit) Effect.Deep.continuation * Memory.addr * int * int * int
      -> pending  (* test-and-set charged next; retry_instrs, gap_ns, until *)
  | P_probe_mut :
      (Ops.probe_result, unit) Effect.Deep.continuation * Memory.addr * int * int * int
      -> pending  (* test-and-set mutates at this dispatch *)
  | P_probe_gap :
      (Ops.probe_result, unit) Effect.Deep.continuation * int -> pending
      (* retry overhead charged; gap_ns remains *)
  | P_hint_read :
      (int, unit) Effect.Deep.continuation * Memory.addr * int * int -> pending
      (* read charged next; gap_ns, expect *)
  | P_hint_val :
      (int, unit) Effect.Deep.continuation * Memory.addr * int * int -> pending
      (* read mutates (observes) at this dispatch *)

(* Cold per-thread state. The hot scalars (status, processor, priority,
   wake time, cpu, penalty, work debt, wake tokens) live in the
   machine's [Mstate.t] int arrays, indexed by tid. *)
type thread = {
  tid : int;
  name : string;
  mutable pending : pending;
  mutable token_wakers : int list;  (* waker tids, oldest first, one per token *)
  mutable joiners : int list;
  mutable last_block_site : string;  (* last lock requested (annot bus), "" if none *)
  mutable held_locks : string list;  (* lock names acquired and not yet released *)
}

(* Sentinel filling the dense thread table's unused entries. Never
   scheduled, never mutated; shared across machines and domains. *)
let no_thread =
  {
    tid = -1;
    name = "<none>";
    pending = P_none;
    token_wakers = [];
    joiners = [];
    last_block_site = "";
    held_locks = [];
  }

(* Slots and run queues hold tids, not thread records, so writing them
   stores an immediate and never goes through the GC's write barrier. *)
type proc = {
  pid : int;
  runq : int Engine.Pqueue.t;
  mutable cont : int;
      (* non-preemptive continuation: the tid occupying the processor,
         resumed ahead of queued threads until it blocks, delays, yields
         or exhausts its quantum. -1 when vacant. *)
}

type t = {
  cfg : Config.t;
  mem : Memory.t;
  st : Mstate.t;  (* flat hot state: clocks, slices, thread scalars *)
  procs : proc array;
  mutable tarr : thread array;  (* dense, indexed by tid; grown by doubling *)
  mutable next_tid : int;
  mutable live : int;
  counters : Engine.Counters.t;
  c_events : int ref;  (* cached cells of the four hottest counters *)
  c_read : int ref;
  c_write : int ref;
  c_atomic : int ref;
  rng : Engine.Rng.t;
  mutable trace_hooks : (time:int -> tid:int -> string -> unit) list;
  mutable event_hooks : (event -> unit) list;  (* subscription order *)
  mutable access_hooks : (access -> unit) list;
  mutable annot_hooks : (annot -> unit) list;
  mutable started : bool;
  mutable final : int;
  mutable place_cursor : int;
  keys : int array;
      (* per processor, the virtual time its next runnable thread would
         start, [max_int] when it has none; kept current by [refresh] *)
  mutable pick_key : int;  (* dispatch key of the last [pick] *)
  mutable horizon : int;
      (* lookahead of the last [pick]: the dispatched processor is picked
         again while its clock stays below this *)
  timers : (int * int * (unit -> unit)) Engine.Pqueue.t;
      (* host-side virtual-time callbacks (fault injection), keyed by
         due time, carrying (time, insertion sequence, callback) so
         simultaneous timers fire in arming order; empty on fault-free
         machines *)
  mutable timer_seq : int;
  mutable abort : string option;  (* a pending host-side abort request *)
  mutable control : int list;
      (* pending schedule-control decisions: the tid each upcoming
         dispatch must pick. Empty = no control. *)
  mutable chooser : (choice array -> int) option;
      (* steering hook consulted per dispatch once [control] is
         exhausted; returns a candidate tid or -1 for the default
         pick *)
  mutable record_schedule : bool;
  mutable schedule_log : Bytes.t;
      (* dispatched tids, oldest first, as LEB128 varints *)
  mutable schedule_len : int;  (* bytes of [schedule_log] in use *)
  mutable control_diverged : bool;
}

and choice = { choice_tid : int; choice_proc : int; choice_key : int }

let create (cfg : Config.t) =
  if cfg.processors <= 0 then invalid_arg "Sched.create: need at least one processor";
  let mem = Memory.create cfg in
  let counters = Engine.Counters.create () in
  {
    cfg;
    mem;
    st = Mstate.create ~cfg ~mem;
    procs =
      Array.init cfg.processors (fun pid ->
          { pid; runq = Engine.Pqueue.create ~dummy:(-1) (); cont = -1 });
    tarr = Array.make 64 no_thread;
    next_tid = 0;
    live = 0;
    counters;
    c_events = Engine.Counters.cell counters "sched.events";
    c_read = Engine.Counters.cell counters "mem.read";
    c_write = Engine.Counters.cell counters "mem.write";
    c_atomic = Engine.Counters.cell counters "mem.atomic";
    rng = Engine.Rng.create cfg.seed;
    trace_hooks = [];
    event_hooks = [];
    access_hooks = [];
    annot_hooks = [];
    started = false;
    final = 0;
    place_cursor = 0;
    keys = Array.make cfg.processors max_int;
    pick_key = max_int;
    horizon = 0;
    timers = Engine.Pqueue.create ~dummy:(0, 0, fun () -> ()) ();
    timer_seq = 0;
    abort = None;
    control = [];
    chooser = None;
    record_schedule = false;
    schedule_log = Bytes.empty;
    schedule_len = 0;
    control_diverged = false;
  }

let config t = t.cfg
let memory t = t.mem
let counters t = t.counters
let final_time t = t.final
let events_executed t = t.st.events
let processor_busy_ns t = Array.copy t.st.busy
let runq_length t pid =
  let p = t.procs.(pid) in
  Engine.Pqueue.size p.runq + if p.cont >= 0 then 1 else 0
let live_threads t = t.live

(* Fast-path switches, re-exported from the state module so experiment
   drivers only ever talk to [Sched]. *)
let set_fast_paths = Mstate.set_fast_paths
let set_op_fusion = Mstate.set_op_fusion

(* Cumulative simulated-event odometer per domain: every [run] that
   completes (or aborts) on this domain adds its machine's final event
   count. Benchmarks read the delta around a measured body to convert
   ns-per-run into simulated events per second. *)
let domain_events : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let domain_events_total () = !(Domain.DLS.get domain_events)

(* Every instrumentation stream is a bus: any number of subscribers,
   delivery in subscription order, and with zero subscribers the
   emission path is a single empty-list branch. *)
let add_trace_hook t hook = t.trace_hooks <- t.trace_hooks @ [ hook ]
let clear_trace_hooks t = t.trace_hooks <- []
let trace_hook_count t = List.length t.trace_hooks
let add_event_hook t hook = t.event_hooks <- t.event_hooks @ [ hook ]
let clear_event_hooks t = t.event_hooks <- []
let event_hook_count t = List.length t.event_hooks
let emit_access t ~time ~proc ~tid addr kind =
  match t.access_hooks with
  | [] -> ()
  | hooks ->
    let ev =
      { access_time = time; access_proc = proc; access_tid = tid;
        access_addr = addr; access_kind = kind }
    in
    List.iter (fun hook -> hook ev) hooks

(* A fast memory charge emits through [Mstate.on_access], at the
   slice's current clock, exactly what [mem_charge] emits. *)
let add_access_hook t hook =
  t.access_hooks <- t.access_hooks @ [ hook ];
  let st = t.st in
  st.on_access <-
    Some
      (fun addr kind ->
        emit_access t ~time:st.pnow.(st.pid) ~proc:st.pid ~tid:st.tid addr kind)

let clear_access_hooks t =
  t.access_hooks <- [];
  t.st.on_access <- None
let access_hook_count t = List.length t.access_hooks
let add_annot_hook t hook = t.annot_hooks <- t.annot_hooks @ [ hook ]
let clear_annot_hooks t = t.annot_hooks <- []
let annot_hook_count t = List.length t.annot_hooks

(* [other] is -1 when the event kind has no related thread; passing it
   positionally (not as an optional argument) keeps the call sites
   allocation-free. The event record is only built once at least one
   subscriber exists. *)
let emit t ~time ~proc ~tid ~other kind =
  match t.event_hooks with
  | [] -> ()
  | hooks ->
    let ev = { time; proc; tid; kind; other } in
    List.iter (fun hook -> hook ev) hooks

let thread_report t =
  let acc = ref [] in
  for tid = t.next_tid - 1 downto 0 do
    let th = t.tarr.(tid) in
    acc := (th.tid, th.name, t.st.cpu.(tid)) :: !acc
  done;
  !acc

let current_thread t =
  let tid = t.st.tid in
  if tid < 0 then invalid_arg "Butterfly: operation performed outside a running thread"
  else t.tarr.(tid)

let proc_of t th = t.procs.(t.st.tproc.(th.tid))

(* Append one tid to the schedule log: seven bits a byte, low group
   first, high bit set on every byte but the last. *)
let log_dispatch t tid =
  if t.schedule_len + 9 > Bytes.length t.schedule_log then begin
    (* room for the longest varint: 63 bits in 7-bit groups *)
    let log = Bytes.create (Int.max 256 (2 * Bytes.length t.schedule_log)) in
    Bytes.blit t.schedule_log 0 log 0 t.schedule_len;
    t.schedule_log <- log
  end;
  let log = t.schedule_log and v = ref tid and n = ref t.schedule_len in
  while !v >= 0x80 do
    Bytes.set log !n (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr n
  done;
  Bytes.set log !n (Char.chr !v);
  t.schedule_len <- !n + 1

(* Fold the fast-path accumulators into the real counter cells, and log
   the slice's fast charges: each stands for one dispatch of the
   slice's thread. Called at the end of every dispatch slice (and on
   run teardown, which may cut a slice short), before anything outside
   the slice can observe the counters or the schedule, so both are
   indistinguishable from the effect-per-op path. Hooks that run inside
   a slice read counter cells that lag its fast charges. *)
let fold_accs t =
  let st = t.st in
  if t.record_schedule then
    for _ = 1 to st.acc_events do log_dispatch t st.tid done;
  t.c_events := !(t.c_events) + st.acc_events;
  t.c_read := !(t.c_read) + st.acc_read;
  t.c_write := !(t.c_write) + st.acc_write;
  t.c_atomic := !(t.c_atomic) + st.acc_atomic;
  st.acc_events <- 0;
  st.acc_read <- 0;
  st.acc_write <- 0;
  st.acc_atomic <- 0

(* Recompute a processor's entry in [t.keys] from its slot, its run
   queue and its clock. Called wherever one of those changes: the end
   of every dispatch, [make_ready], and the host-side [kill_thread],
   [stall_processor] and [extract_thread]. *)
let refresh t p =
  let wake = if p.cont >= 0 then t.st.wake_at.(p.cont) else Engine.Pqueue.peek_min_key p.runq in
  let key = if wake = max_int then max_int else Int.max t.st.pnow.(p.pid) wake in
  t.keys.(p.pid) <- key

let make_ready t tid ~at =
  let st = t.st in
  st.status.(tid) <- Mstate.st_ready;
  st.wake_at.(tid) <- at;
  let p = t.procs.(st.tproc.(tid)) in
  Engine.Pqueue.add p.runq ~key:at tid;
  refresh t p

(* The currently-running thread keeps its processor (non-preemptive
   execution), unless a preemption quantum is configured and its slice
   is exhausted — then it is demoted behind the queued threads.
   ([st.quantum] is [max_int] when no quantum is configured, so the
   comparison alone encodes the option.) *)
let continue_on t p tid ~at =
  let st = t.st in
  st.status.(tid) <- Mstate.st_ready;
  st.wake_at.(tid) <- at;
  if st.slice.(p.pid) >= st.quantum then begin
    st.slice.(p.pid) <- 0;
    Engine.Counters.incr t.counters "sched.preemptions";
    emit t ~time:at ~proc:p.pid ~tid ~other:(-1) Ev_preempt;
    Engine.Pqueue.add p.runq ~key:at tid
  end
  else
    (* Under schedule control a forced dispatch may run a queued thread
       while another still occupies the continuation slot; queue behind
       it rather than overwrite (and lose) it. On the default path the
       slot is always vacant here. *)
    if p.cont < 0 then p.cont <- tid
    else Engine.Pqueue.add p.runq ~key:at tid

(* Charge [ns] of processor occupancy ending at the thread's next wake
   time: the processor is busy until then (its clock advances), and the
   fiber is suspended and rescheduled at the completion time. *)
let charge_and_resume t th p ~ns pend =
  let st = t.st in
  th.pending <- pend;
  st.cpu.(th.tid) <- st.cpu.(th.tid) + ns;
  st.busy.(p.pid) <- st.busy.(p.pid) + ns;
  st.pnow.(p.pid) <- st.pnow.(p.pid) + ns;
  st.slice.(p.pid) <- st.slice.(p.pid) + ns;
  continue_on t p th.tid ~at:st.pnow.(p.pid)

let suspend_unit t th p ~ns k = charge_and_resume t th p ~ns (P_unit k)

(* Charge a span of pure computation, slicing it by the preemption
   quantum exactly as the [E_work] handler does: the first chunk is
   charged now, the rest becomes work debt consumed chunk-by-chunk at
   subsequent dispatches. Used by the staged fused operations so their
   work components preempt identically to standalone [work] calls. *)
let charge_work t th p ~ns pend =
  let st = t.st in
  let chunk = Int.min ns st.quantum in
  st.work_left.(th.tid) <- ns - chunk;
  charge_and_resume t th p ~ns:chunk pend

(* Thread placement for unpinned forks: round-robin, skipping processor
   load imbalance concerns (deterministic and uniform). *)
let place t =
  let pid = t.place_cursor in
  t.place_cursor <- (t.place_cursor + 1) mod Array.length t.procs;
  pid

let new_thread t ~name ~proc ~prio fn =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  (* An empty name means "let the machine name it": tid-derived, hence
     deterministic per machine and safe under parallel experiment
     runs (unlike any global naming counter). *)
  let name = if name = "" then "thread-" ^ string_of_int tid else name in
  let th =
    {
      tid;
      name;
      pending = P_start fn;
      token_wakers = [];
      joiners = [];
      last_block_site = "";
      held_locks = [];
    }
  in
  let st = t.st in
  Mstate.ensure_thread st tid;
  if tid >= Array.length t.tarr then begin
    let n = Array.length t.tarr in
    let grown = Array.make (Int.max (n * 2) (tid + 1)) no_thread in
    Array.blit t.tarr 0 grown 0 n;
    t.tarr <- grown
  end;
  t.tarr.(tid) <- th;
  st.status.(tid) <- Mstate.st_ready;
  st.tproc.(tid) <- proc;
  st.prio.(tid) <- prio;
  st.wake_at.(tid) <- 0;
  st.cpu.(tid) <- 0;
  st.penalty.(tid) <- 0;
  st.work_left.(tid) <- 0;
  st.tokens.(tid) <- 0;
  t.live <- t.live + 1;
  th

let finish ?at t th =
  let st = t.st in
  let proc = st.tproc.(th.tid) in
  let now = match at with Some a -> a | None -> st.pnow.(proc) in
  st.status.(th.tid) <- Mstate.st_finished;
  emit t ~time:now ~proc ~tid:th.tid ~other:(-1) Ev_finish;
  t.live <- t.live - 1;
  let wake_time = now + t.cfg.join_ns in
  List.iter
    (fun jtid ->
      if st.status.(jtid) = Mstate.st_joining then begin
        emit t ~time:wake_time ~proc:st.tproc.(jtid) ~tid:jtid ~other:th.tid Ev_join;
        make_ready t jtid ~at:wake_time
      end)
    th.joiners;
  th.joiners <- []

let find_thread t tid =
  if tid >= 0 && tid < t.next_tid then t.tarr.(tid)
  else invalid_arg (Printf.sprintf "Butterfly: unknown thread %d" tid)

let machine_time t =
  let best = ref 0 in
  Array.iter (fun pn -> if pn > !best then best := pn) t.st.pnow;
  !best

(* {2 Fault-injection entry points}

   All of these are host-side: the injector calls them from virtual-time
   timers (or annotation hooks), never from simulated code. On a
   machine with no timers and no penalties the scheduler's behaviour is
   bit-for-bit the fault-free one. Each mutation also voids the
   lookahead: a hook can call one mid-slice or between [pick] and the
   slice it chose, and the mutation may move that slice's limit or owe
   its thread a stall at its next dispatch. So the slice in progress
   (if any) leaves fast mode, and a slice about to start gets no
   horizon; the next [pick] computes a fresh one. The conservative
   route is the effect path, which observes host mutations at full
   fidelity. *)

let void_lookahead t =
  t.st.fast <- false;
  t.horizon <- 0

let add_timer t ~at fn =
  if at < 0 then invalid_arg "Sched.add_timer: negative time";
  let seq = t.timer_seq in
  t.timer_seq <- seq + 1;
  Engine.Pqueue.add t.timers ~key:at (at, seq, fn);
  void_lookahead t

let pending_timers t = Engine.Pqueue.size t.timers

let request_abort t reason =
  if t.abort = None then begin
    t.abort <- Some reason;
    void_lookahead t
  end

let abort_requested t = t.abort

let stall_processor t ~proc ~ns =
  if proc < 0 || proc >= Array.length t.procs then
    invalid_arg (Printf.sprintf "Sched.stall_processor: bad processor %d" proc);
  if ns < 0 then invalid_arg "Sched.stall_processor: negative stall";
  t.st.pnow.(proc) <- t.st.pnow.(proc) + ns;
  t.st.slice.(proc) <- 0;
  void_lookahead t;
  refresh t t.procs.(proc)

let penalize_thread t ~tid ~ns =
  if ns < 0 then invalid_arg "Sched.penalize_thread: negative penalty";
  if tid >= 0 && tid < t.next_tid && t.st.status.(tid) <> Mstate.st_finished then begin
    t.st.penalty.(tid) <- t.st.penalty.(tid) + ns;
    void_lookahead t;
    true
  end
  else false

(* A kill models a crash: the suspended continuation is dropped (no
   cleanup runs; the fiber is reclaimed by the GC), joiners are woken
   exactly as for a normal termination, and any lock words the victim
   holds stay held — which is precisely the pathology the watchdog and
   the chaos harness are there to surface. Threads already queued stay
   in their run queues; the dispatcher skips Finished entries. *)
let kill_thread t ~tid ~at =
  if tid < 0 || tid >= t.next_tid then false
  else begin
    let th = t.tarr.(tid) in
    if t.st.status.(tid) = Mstate.st_finished then false
    else begin
      th.pending <- P_none;
      t.st.work_left.(tid) <- 0;
      void_lookahead t;
      Array.iter
        (fun p -> if p.cont = tid then begin p.cont <- -1; refresh t p end)
        t.procs;
      Engine.Counters.incr t.counters "sched.kills";
      finish ~at t th;
      true
    end
  end

let mem_access_kind = function
  | `Read -> Memory.Read_access
  | `Write -> Memory.Write_access
  | `Atomic -> Memory.Atomic_access

(* Reserve a memory access starting now and return its duration; the
   caller suspends the fiber with a [pending] that performs the actual
   word operation at dispatch, i.e. in global virtual-time order. *)
let mem_charge t th p ~kind addr =
  (match kind with
  | `Read -> t.c_read := !(t.c_read) + 1
  | `Write -> t.c_write := !(t.c_write) + 1
  | `Atomic -> t.c_atomic := !(t.c_atomic) + 1);
  let pnow = t.st.pnow.(p.pid) in
  emit_access t ~time:pnow ~proc:p.pid ~tid:th.tid addr (mem_access_kind kind);
  let complete =
    Memory.reserve t.mem t.cfg ~from_node:p.pid addr (mem_access_kind kind) ~start:pnow
  in
  complete - pnow

(* The retry tail of a failed probe: [retry] instructions of overhead
   then a [gap] ns backoff, each charged at its own dispatch. *)
let probe_retry t th p k ~retry ~gap =
  let retry_ns = Config.instrs t.cfg retry in
  if retry_ns > 0 then charge_work t th p ~ns:retry_ns (P_probe_gap (k, gap))
  else if gap > 0 then charge_work t th p ~ns:gap (P_value (k, Ops.Probe_retrying))
  else Effect.Deep.continue k Ops.Probe_retrying

let handle_effect : type a. t -> a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option =
 fun t eff ->
  let cfg = t.cfg in
  match eff with
  | Ops.E_read addr ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = mem_charge t th p ~kind:`Read addr in
        charge_and_resume t th p ~ns (P_read (k, addr)))
  | Ops.E_write (addr, v) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = mem_charge t th p ~kind:`Write addr in
        charge_and_resume t th p ~ns (P_write (k, addr, v)))
  | Ops.E_fetch_and_or (addr, v) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = mem_charge t th p ~kind:`Atomic addr in
        charge_and_resume t th p ~ns (P_rmw (k, Rmw_or, addr, v)))
  | Ops.E_fetch_and_add (addr, v) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = mem_charge t th p ~kind:`Atomic addr in
        charge_and_resume t th p ~ns (P_rmw (k, Rmw_add, addr, v)))
  | Ops.E_swap (addr, v) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = mem_charge t th p ~kind:`Atomic addr in
        charge_and_resume t th p ~ns (P_rmw (k, Rmw_swap, addr, v)))
  | Ops.E_cas (addr, expected, desired) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = mem_charge t th p ~kind:`Atomic addr in
        charge_and_resume t th p ~ns (P_cas (k, addr, expected, desired)))
  | Ops.E_lock_probe (addr, pre, retry, gap, until) ->
    Some
      (fun k ->
        (* Stage one fused spin-lock probe: the entry overhead is
           charged now; the test-and-set, the timeout decision and any
           retry/backoff charges each take their own dispatch (see the
           [P_probe_*] cases of [resume]), exactly as the decomposed
           sequence would. *)
        let th = current_thread t in
        let p = proc_of t th in
        let pre_ns = Config.instrs cfg pre in
        if pre_ns > 0 then
          charge_work t th p ~ns:pre_ns (P_probe_tas (k, addr, retry, gap, until))
        else
          let ns = mem_charge t th p ~kind:`Atomic addr in
          charge_and_resume t th p ~ns (P_probe_mut (k, addr, retry, gap, until)))
  | Ops.E_read_hint (addr, pre_ns, gap, expect) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        if pre_ns > 0 then
          charge_work t th p ~ns:pre_ns (P_hint_read (k, addr, gap, expect))
        else
          let ns = mem_charge t th p ~kind:`Read addr in
          charge_and_resume t th p ~ns (P_hint_val (k, addr, gap, expect)))
  | Ops.E_probe_retry (retry, gap) ->
    Some
      (fun k ->
        let th = current_thread t in
        probe_retry t th (proc_of t th) k ~retry ~gap)
  | Ops.E_alloc (node, n) ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let node = match node with Some node -> node | None -> t.st.tproc.(th.tid) in
        let addrs = Memory.alloc t.mem ~node n in
        charge_and_resume t th p ~ns:cfg.local_write_ns (P_value (k, addrs)))
  | Ops.E_work ns ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let chunk = Int.min ns t.st.quantum in
        t.st.work_left.(th.tid) <- ns - chunk;
        suspend_unit t th p ~ns:chunk k)
  | Ops.E_work_instrs n ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let ns = Config.instrs cfg n in
        let chunk = Int.min ns t.st.quantum in
        t.st.work_left.(th.tid) <- ns - chunk;
        suspend_unit t th p ~ns:chunk k)
  | Ops.E_delay ns ->
    Some
      (fun k ->
        (* A delay releases the processor: no cpu charge, later wake. *)
        let th = current_thread t in
        let p = proc_of t th in
        t.st.slice.(p.pid) <- 0;
        th.pending <- P_unit k;
        make_ready t th.tid ~at:(t.st.pnow.(p.pid) + ns))
  | Ops.E_now ->
    Some
      (fun k ->
        let th = current_thread t in
        Effect.Deep.continue k t.st.pnow.(t.st.tproc.(th.tid)))
  | Ops.E_fork spec ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        Engine.Counters.incr t.counters "sched.forks";
        let proc =
          match spec.proc with
          | Some pid ->
            if pid < 0 || pid >= Array.length t.procs then
              invalid_arg (Printf.sprintf "fork: bad processor %d" pid);
            pid
          | None -> place t
        in
        let child = new_thread t ~name:spec.name ~proc ~prio:spec.prio spec.f in
        let pnow = t.st.pnow.(p.pid) in
        emit t ~time:pnow ~proc ~tid:child.tid ~other:th.tid Ev_fork;
        make_ready t child.tid ~at:(pnow + cfg.fork_ns + cfg.wakeup_latency_ns);
        charge_and_resume t th p ~ns:cfg.fork_ns (P_value (k, child.tid)))
  | Ops.E_join tid ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let target = find_thread t tid in
        if t.st.status.(tid) = Mstate.st_finished then begin
          emit t ~time:t.st.pnow.(p.pid) ~proc:p.pid ~tid:th.tid ~other:tid Ev_join;
          suspend_unit t th p ~ns:cfg.join_ns k
        end
        else begin
          t.st.status.(th.tid) <- Mstate.st_joining;
          th.pending <- P_unit k;
          target.joiners <- th.tid :: target.joiners
        end)
  | Ops.E_yield ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let st = t.st in
        Engine.Counters.incr t.counters "sched.yields";
        th.pending <- P_unit k;
        st.cpu.(th.tid) <- st.cpu.(th.tid) + cfg.yield_ns;
        st.busy.(p.pid) <- st.busy.(p.pid) + cfg.yield_ns;
        st.pnow.(p.pid) <- st.pnow.(p.pid) + cfg.yield_ns;
        st.slice.(p.pid) <- 0;
        make_ready t th.tid ~at:st.pnow.(p.pid))
  | Ops.E_block ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let st = t.st in
        Engine.Counters.incr t.counters "sched.blocks";
        if st.tokens.(th.tid) > 0 then begin
          (* A wakeup already arrived: absorb it and keep running. *)
          st.tokens.(th.tid) <- st.tokens.(th.tid) - 1;
          let waker =
            match th.token_wakers with
            | w :: rest ->
              th.token_wakers <- rest;
              w
            | [] -> -1
          in
          emit t ~time:st.pnow.(p.pid) ~proc:p.pid ~tid:th.tid ~other:waker Ev_token_use;
          suspend_unit t th p ~ns:0 k
        end
        else begin
          st.status.(th.tid) <- Mstate.st_blocked;
          emit t ~time:st.pnow.(p.pid) ~proc:p.pid ~tid:th.tid ~other:(-1) Ev_block;
          th.pending <- P_unit k;
          (* The processor spends [block_ns] saving the context. *)
          st.pnow.(p.pid) <- st.pnow.(p.pid) + cfg.block_ns;
          st.busy.(p.pid) <- st.busy.(p.pid) + cfg.block_ns;
          st.cpu.(th.tid) <- st.cpu.(th.tid) + cfg.block_ns;
          st.slice.(p.pid) <- 0
        end)
  | Ops.E_wakeup tid ->
    Some
      (fun k ->
        let th = current_thread t in
        let p = proc_of t th in
        let st = t.st in
        Engine.Counters.incr t.counters "sched.wakeups";
        let target = find_thread t tid in
        let code = st.status.(tid) in
        let pnow = st.pnow.(p.pid) in
        if code = Mstate.st_blocked then begin
          st.status.(tid) <- Mstate.st_ready;
          emit t ~time:pnow ~proc:st.tproc.(tid) ~tid ~other:th.tid Ev_wakeup;
          make_ready t tid ~at:(pnow + cfg.unblock_ns + cfg.wakeup_latency_ns)
        end
        else if code = Mstate.st_finished then
          Engine.Counters.incr t.counters "sched.wakeups_late"
        else begin
          st.tokens.(tid) <- st.tokens.(tid) + 1;
          target.token_wakers <- target.token_wakers @ [ th.tid ];
          emit t ~time:pnow ~proc:st.tproc.(tid) ~tid ~other:th.tid Ev_token
        end;
        suspend_unit t th p ~ns:cfg.unblock_ns k)
  | Ops.E_self -> Some (fun k -> Effect.Deep.continue k (current_thread t).tid)
  | Ops.E_my_processor ->
    Some (fun k -> Effect.Deep.continue k t.st.tproc.((current_thread t).tid))
  | Ops.E_set_priority (tid, prio) ->
    Some
      (fun k ->
        ignore (find_thread t tid : thread);
        t.st.prio.(tid) <- prio;
        Effect.Deep.continue k ())
  | Ops.E_priority_of tid ->
    Some
      (fun k ->
        ignore (find_thread t tid : thread);
        Effect.Deep.continue k t.st.prio.(tid))
  | Ops.E_processors -> Some (fun k -> Effect.Deep.continue k (Array.length t.procs))
  | Ops.E_random bound -> Some (fun k -> Effect.Deep.continue k (Engine.Rng.int t.rng bound))
  | Ops.E_trace msg ->
    Some
      (fun k ->
        (match t.trace_hooks with
        | [] -> ()
        | hooks ->
          let th = current_thread t in
          let time = t.st.pnow.(t.st.tproc.(th.tid)) in
          List.iter (fun hook -> hook ~time ~tid:th.tid msg) hooks);
        Effect.Deep.continue k ())
  | Ops.E_annotate annotation ->
    Some
      (fun k ->
        (* Lock annotations double as the scheduler's own bookkeeping
           for abort diagnostics: each thread's last requested lock is
           its "blocking site" and acquire/release maintain its held
           set. This only runs when annotations flow at all (i.e. at
           least one subscriber), so the zero-subscriber fast path in
           Ops.annotate is untouched. *)
        let th = current_thread t in
        (match annotation with
        | Ops.A_lock_request { lock_name; _ } -> th.last_block_site <- lock_name
        | Ops.A_lock_acquire { lock_name; _ } ->
          th.held_locks <- lock_name :: th.held_locks
        | Ops.A_lock_release { lock_name; _ } ->
          let rec remove_first = function
            | [] -> []
            | hd :: tl -> if String.equal hd lock_name then tl else hd :: remove_first tl
          in
          th.held_locks <- remove_first th.held_locks
        | Ops.A_sync_word _ | Ops.A_relaxed_word _ | Ops.A_adaptation _ -> ());
        (match t.annot_hooks with
        | [] -> ()
        | hooks ->
          let proc = t.st.tproc.(th.tid) in
          let ev =
            { annot_time = t.st.pnow.(proc); annot_proc = proc; annot_tid = th.tid;
              annotation }
          in
          List.iter (fun hook -> hook ev) hooks);
        Effect.Deep.continue k ())
  | Ops.E_thread_name tid -> Some (fun k -> Effect.Deep.continue k (find_thread t tid).name)
  | _ -> None

let run_fiber t th fn =
  Effect.Deep.match_with fn ()
    {
      retc = (fun () -> finish t th);
      exnc = (fun e -> raise (Thread_crash (th.name, e)));
      effc = (fun eff -> handle_effect t eff);
    }

(* Finish a reified suspended operation and resume the fiber. Memory
   mutations happen here, at dispatch, so they linearize in global
   virtual-time order. The staged [P_probe_*]/[P_hint_*] cases advance
   a fused operation by one charge instead of resuming the fiber. *)
let resume t th p pend =
  match pend with
  | P_none | P_start _ -> assert false
  | P_unit k -> Effect.Deep.continue k ()
  | P_value (k, v) -> Effect.Deep.continue k v
  | P_read (k, addr) -> Effect.Deep.continue k (Memory.read t.mem addr)
  | P_write (k, addr, v) -> Effect.Deep.continue k (Memory.write t.mem addr v)
  | P_rmw (k, op, addr, v) ->
    Effect.Deep.continue k
      (match op with
      | Rmw_or -> Memory.fetch_and_or t.mem addr v
      | Rmw_add -> Memory.fetch_and_add t.mem addr v
      | Rmw_swap -> Memory.swap t.mem addr v)
  | P_cas (k, addr, expected, desired) ->
    Effect.Deep.continue k (Memory.compare_and_swap t.mem addr ~expected ~desired)
  | P_probe_tas (k, addr, retry, gap, until) ->
    let ns = mem_charge t th p ~kind:`Atomic addr in
    charge_and_resume t th p ~ns (P_probe_mut (k, addr, retry, gap, until))
  | P_probe_mut (k, addr, retry, gap, until) ->
    let prev = Memory.fetch_and_or t.mem addr 1 in
    if prev = 0 then Effect.Deep.continue k Ops.Probe_acquired
    else if t.st.pnow.(p.pid) >= until then
      Effect.Deep.continue k Ops.Probe_expired
    else probe_retry t th p k ~retry ~gap
  | P_probe_gap (k, gap) ->
    if gap > 0 then charge_work t th p ~ns:gap (P_value (k, Ops.Probe_retrying))
    else Effect.Deep.continue k Ops.Probe_retrying
  | P_hint_read (k, addr, gap, expect) ->
    let ns = mem_charge t th p ~kind:`Read addr in
    charge_and_resume t th p ~ns (P_hint_val (k, addr, gap, expect))
  | P_hint_val (k, addr, gap, expect) ->
    let v = Memory.read t.mem addr in
    if gap > 0 && v = expect then charge_work t th p ~ns:gap (P_value (k, v))
    else Effect.Deep.continue k v

(* Pick the processor whose next runnable thread executes earliest.
   Ties break toward the lowest processor id, keeping runs
   deterministic. Returns its id, or -1 when no processor has a
   runnable thread. Leaves the dispatch key (the global next virtual
   time, so the run loop can fire due fault timers first) in
   [t.pick_key], and in [t.horizon] the earliest clock at which the
   winner would lose the tie-break: a processor below it wins at its
   own key, one above it only past its key. A scan of the maintained
   [t.keys]: no processor record is read and nothing is allocated per
   dispatch. *)
let pick t =
  let keys = t.keys in
  let best_key = ref max_int and best_pid = ref (-1) and horizon = ref max_int in
  for pid = 0 to Array.length keys - 1 do
    let key = Array.unsafe_get keys pid in
    if key < !best_key then begin
      (* every processor scanned so far is below the new winner; the
         old winner holds their least key *)
      horizon := !best_key;
      best_key := key;
      best_pid := pid
    end
    else if key < !horizon then horizon := key + 1
  done;
  t.pick_key <- !best_key;
  t.horizon <- !horizon;
  !best_pid

(* May the dispatch slice about to start charge directly (no effects)?
   Only when the default pick decides every dispatch: no schedule
   control, no chooser, no pending abort. Which operations then qualify
   is the slice's limit (see [slice_limit]): a fast op advances only
   this processor's clock, and it is charged directly only if the
   dispatcher would pick this thread again when it completes.
   Observers do not disqualify a slice: a fast memory charge emits its
   access record, the schedule log gains one entry per fast charge at
   slice end, and annotation and trace effects continue the fiber in
   place as they do on any slice. *)
let slice_fast_ok t =
  Mstate.fast_paths_enabled ()
  && (match t.abort with None -> true | Some _ -> false)
  && (match t.control with [] -> true | _ -> false)
  && (match t.chooser with None -> true | Some _ -> false)

(* The lookahead bound of a slice starting at [start] on processor
   [pid]: the earliest of [pick]'s horizon, the next fault timer and
   the quantum boundary. Below it, the dispatcher would run this thread
   again with nothing in between — another processor's thread, a timer
   or a preemption — so each operation that completes before it can be
   charged as its own dispatch would have charged it. The bound holds
   for the whole slice: the other processors' keys change only at a
   suspension, which ends the slice, or by a host-side mutation, which
   ends fast mode; and [start + quantum - slice] moves with neither
   clock nor slice, since a fast charge advances both alike. *)
let slice_limit t pid start =
  let st = t.st in
  let room = st.quantum - st.slice.(pid) in
  let quantum_end = if room > max_int - start then max_int else start + room in
  Int.min (Int.min t.horizon (Engine.Pqueue.peek_min_key t.timers)) quantum_end

(* Run one slice of thread [tid], already taken from [p]'s slot or run
   queue, then refresh [p]'s dispatch key: the slice moved its clock and
   may have refilled its slot or queue. *)
let dispatch_thread t p tid =
  if t.record_schedule then log_dispatch t tid;
  let st = t.st in
  if st.status.(tid) = Mstate.st_finished then ()
    (* a killed thread still queued: consume the slot, run nothing *)
  else begin
    let pid = p.pid in
    let start = Int.max st.pnow.(pid) st.wake_at.(tid) in
    let start =
      if st.last_tid.(pid) >= 0 && st.last_tid.(pid) <> tid then begin
        Engine.Counters.incr t.counters "sched.switches";
        emit t ~time:start ~proc:pid ~tid ~other:(-1) Ev_switch;
        st.busy.(pid) <- st.busy.(pid) + t.cfg.switch_ns;
        st.slice.(pid) <- 0;
        start + t.cfg.switch_ns
      end
      else start
    in
    let start =
      if st.penalty.(tid) > 0 then begin
        (* A fault-injected stall (e.g. lock-holder delay): the thread is
           charged the penalty before it resumes. *)
        let pen = st.penalty.(tid) in
        st.penalty.(tid) <- 0;
        Engine.Counters.incr t.counters "sched.fault_stalls";
        start + pen
      end
      else start
    in
    st.last_tid.(pid) <- tid;
    st.pnow.(pid) <- start;
    if st.work_left.(tid) > 0 then begin
      (* Preemption quantum: slice the remaining computation. *)
      let wl = st.work_left.(tid) in
      let chunk = Int.min wl st.quantum in
      st.work_left.(tid) <- wl - chunk;
      st.cpu.(tid) <- st.cpu.(tid) + chunk;
      st.busy.(pid) <- st.busy.(pid) + chunk;
      st.pnow.(pid) <- start + chunk;
      st.slice.(pid) <- st.slice.(pid) + chunk;
      continue_on t p tid ~at:st.pnow.(pid)
    end
    else begin
      let th = t.tarr.(tid) in
      st.status.(tid) <- Mstate.st_running;
      st.tid <- tid;
      st.pid <- pid;
      st.fast <- slice_fast_ok t;
      if st.fast then st.limit <- slice_limit t pid start;
      (match th.pending with
      | P_none -> assert false
      | P_start fn ->
        th.pending <- P_none;
        run_fiber t th fn
      | pend ->
        th.pending <- P_none;
        resume t th p pend);
      st.fast <- false;
      if st.acc_events <> 0 then fold_accs t;
      st.tid <- -1
    end
  end;
  refresh t p

let dispatch t p =
  let tid = p.cont in
  if tid >= 0 then begin
    p.cont <- -1;
    dispatch_thread t p tid
  end
  else dispatch_thread t p (Engine.Pqueue.pop_min_value_exn p.runq)

(* {2 Controlled scheduling}

   Two host-side steering mechanisms over the same dispatch machinery:
   a {e decision list} (the serialized schedule: the tid every upcoming
   dispatch must pick, replayable bit-for-bit) and a {e chooser} (a
   callback consulted per dispatch once the list is exhausted, used by
   the witness engine to steer a run towards a predicted interleaving).
   Neither changes what a dispatched thread does — only which runnable
   thread goes next — so any controlled schedule is a schedule the
   machine could have taken. *)

let set_schedule_control t decisions =
  t.control <- decisions;
  void_lookahead t

let set_dispatch_chooser t chooser =
  t.chooser <- chooser;
  void_lookahead t

let set_record_schedule t flag =
  t.record_schedule <- flag;
  if flag then t.schedule_len <- 0

(* Decode the log from its end, so the list is built in dispatch order
   without a reversal: a varint's last byte is the only one with the
   high bit clear, so each tid spans the bytes after the previous
   such byte. *)
let recorded_schedule t =
  let log = t.schedule_log in
  let byte i = Char.code (Bytes.get log i) in
  let rec decode acc last =
    if last < 0 then acc
    else begin
      let first = ref last in
      while !first > 0 && byte (!first - 1) >= 0x80 do decr first done;
      let v = ref 0 in
      for i = last downto !first do v := (!v lsl 7) lor (byte i land 0x7f) done;
      decode (!v :: acc) (!first - 1)
    end
  in
  decode [] (t.schedule_len - 1)

let control_diverged t = t.control_diverged

let replay_faithful t schedule =
  recorded_schedule t = schedule && (not t.control_diverged) && t.control = []

(* Every thread the machine could legally dispatch right now: each
   processor's continuation slot if occupied (non-preemptive execution
   means queued threads on that processor are not eligible), otherwise
   its queued non-finished threads. Sorted by tid for determinism. *)
let dispatch_candidates t =
  let st = t.st in
  let acc = ref [] in
  Array.iter
    (fun p ->
      if p.cont >= 0 then
        acc :=
          { choice_tid = p.cont; choice_proc = p.pid;
            choice_key = Int.max st.pnow.(p.pid) st.wake_at.(p.cont) }
          :: !acc
      else
        Engine.Pqueue.iter p.runq (fun _ tid ->
            if st.status.(tid) <> Mstate.st_finished then
              acc :=
                { choice_tid = tid; choice_proc = p.pid;
                  choice_key = Int.max st.pnow.(p.pid) st.wake_at.(tid) }
                :: !acc))
    t.procs;
  let arr = Array.of_list !acc in
  Array.sort (fun a b -> compare a.choice_tid b.choice_tid) arr;
  arr

(* Locate a dispatchable thread's processor (slot or run queue) without
   extracting it: the run loop must know the dispatch key first, since a
   due fault timer fires instead and the decision is then re-evaluated. *)
let locate_dispatchable t tid =
  if tid < 0 || tid >= t.next_tid then None
  else begin
    let p = t.procs.(t.st.tproc.(tid)) in
    let found = ref (p.cont = tid) in
    Engine.Pqueue.iter p.runq (fun _ tid' -> if tid' = tid then found := true);
    if !found then Some p else None
  end

let extract_thread t p tid =
  let found =
    if p.cont = tid then begin
      p.cont <- -1;
      true
    end
    else Engine.Pqueue.remove p.runq (fun tid' -> tid' = tid) <> None
  in
  refresh t p;
  found

(* What the next scheduling step should be, under control. [`Forced]
   carries whether the pick consumes the head of the decision list. A
   decision naming a thread that is not dispatchable marks the run as
   diverged and control is abandoned (default scheduling resumes); the
   same applies to a chooser returning a non-candidate tid. *)
let controlled_pick t =
  let default () =
    let pid = pick t in
    if pid < 0 then None else Some (t.pick_key, `Default t.procs.(pid))
  in
  let forced p tid consume =
    Some (Int.max t.st.pnow.(p.pid) t.st.wake_at.(tid), `Forced (p, tid, consume))
  in
  match t.control with
  | tid :: _ -> (
    match locate_dispatchable t tid with
    | Some p -> forced p tid true
    | None ->
      t.control <- [];
      t.control_diverged <- true;
      default ())
  | [] -> (
    match t.chooser with
    | None -> default ()
    | Some choose -> (
      let cands = dispatch_candidates t in
      if Array.length cands = 0 then default ()
      else
        let tid = choose cands in
        if tid < 0 then default ()
        else if not (Array.exists (fun c -> c.choice_tid = tid) cands) then begin
          t.control_diverged <- true;
          default ()
        end
        else
          match locate_dispatchable t tid with
          | Some p -> forced p tid false
          | None ->
            t.control_diverged <- true;
            default ()))

(* One blocked/joining thread's entry in the deadlock payload. When
   lock annotations were flowing (any annot subscriber), each entry
   also names the thread's last blocking site (the lock it last
   requested) and the locks it still holds. *)
let stuck_description t th =
  let verb =
    if t.st.status.(th.tid) = Mstate.st_joining then "joining" else "blocked"
  in
  let site = if th.last_block_site = "" then "" else " at " ^ th.last_block_site in
  let holding =
    match th.held_locks with
    | [] -> ""
    | held -> Printf.sprintf ", holding [%s]" (String.concat ", " (List.rev held))
  in
  Printf.sprintf "%s(#%d %s%s%s)" th.name th.tid verb site holding

let deadlock_report t =
  let stuck = ref [] in
  for tid = 0 to t.next_tid - 1 do
    let code = t.st.status.(tid) in
    if code = Mstate.st_blocked || code = Mstate.st_joining then
      stuck := stuck_description t t.tarr.(tid) :: !stuck
  done;
  String.concat ", " (List.sort String.compare !stuck)

let state_name code =
  if code = Mstate.st_ready then "ready"
  else if code = Mstate.st_running then "running"
  else if code = Mstate.st_blocked then "blocked"
  else if code = Mstate.st_joining then "joining"
  else "finished"

(* A deterministic full dump of the machine for structured aborts: no
   wall-clock, no addresses — byte-identical across runs and domain
   counts. *)
let diagnostics t =
  let st = t.st in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "machine at t=%dns: %d live thread(s), %d event(s), %d timer(s) pending\n"
       (machine_time t) t.live st.events (Engine.Pqueue.size t.timers));
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  proc %d: now=%dns busy=%dns runq=%d\n" p.pid
           st.pnow.(p.pid) st.busy.(p.pid)
           (runq_length t p.pid)))
    t.procs;
  for tid = 0 to t.next_tid - 1 do
    let th = t.tarr.(tid) in
    let site = if th.last_block_site = "" then "" else " site=" ^ th.last_block_site in
    let holding =
      match th.held_locks with
      | [] -> ""
      | held -> Printf.sprintf " holding=[%s]" (String.concat ", " (List.rev held))
    in
    Buffer.add_string buf
      (Printf.sprintf "  thread %s(#%d): %s cpu=%dns%s%s\n" th.name th.tid
         (state_name st.status.(tid)) st.cpu.(tid) site holding)
  done;
  Buffer.contents buf

(* Pop and run every timer due at or before [upto]. Callbacks run
   host-side (no current thread) and may mutate the machine: stall
   processors, kill threads, degrade memory modules, re-arm timers.
   The due batch is collected before any callback runs (in (time,
   arming-sequence) order), so timers armed during the batch for a
   time <= [upto] fire on the next loop iteration and a re-arming
   callback cannot livelock the batch. *)
let fire_timers t ~upto =
  let due = ref [] in
  while Engine.Pqueue.peek_min_key t.timers <= upto do
    due := Engine.Pqueue.pop_min_value_exn t.timers :: !due
  done;
  let due =
    List.sort
      (fun (a1, s1, _) (a2, s2, _) ->
        if a1 <> a2 then compare a1 a2 else compare s1 s2)
      !due
  in
  List.iter (fun (_, _, fn) -> fn ()) due

(* Host-side hooks fired at the start of every [run], on the domain
   about to run the machine. Registered once, at module-initialisation
   time, by libraries layered above the machine that keep per-domain
   state keyed to "the current simulation" — e.g. the adaptive-object
   registry resets itself here so entries never leak from a finished
   run into the next one on the same domain. The list is
   prepend-then-read under an [Atomic] so concurrent [Engine.Runner]
   domains starting runs never observe a torn list. *)
let run_start_hooks : (unit -> unit) list Atomic.t = Atomic.make []

let at_run_start f =
  let rec add () =
    let hooks = Atomic.get run_start_hooks in
    if not (Atomic.compare_and_set run_start_hooks hooks (f :: hooks)) then add ()
  in
  add ()

(* The event loop behind [run] and [run_outcome]: [main] is the first
   thread's body; returns when every thread has finished. *)
let execute t main =
  if t.started then invalid_arg "Sched.run: this machine already ran";
  t.started <- true;
  List.iter (fun f -> f ()) (List.rev (Atomic.get run_start_hooks));
  (* Publish the annotation-subscriber state for this machine to the
     domain running it: with no subscriber, Ops.annotate skips the
     effect (and the payload) entirely. Saved/restored so nested or
     back-to-back runs on the same domain stay correct. The same
     discipline publishes the flat state to Ops' fast paths. *)
  let saved_annots = Ops.annotations_enabled () in
  Ops.set_annotations_enabled (t.annot_hooks <> []);
  let st = t.st in
  let prev_st = Mstate.swap_in st in
  Fun.protect
    ~finally:(fun () ->
      st.fast <- false;
      fold_accs t;
      Mstate.restore prev_st;
      Ops.set_annotations_enabled saved_annots;
      t.final <- machine_time t;
      let total = Domain.DLS.get domain_events in
      total := !total + st.events)
    (fun () ->
      let main_thread = new_thread t ~name:"main" ~proc:0 ~prio:0 main in
      make_ready t main_thread.tid ~at:0;
      let continue = ref true in
      let no_runnable () =
        if t.live = 0 then
          (* All threads finished: the run is over. Timers still
             pending describe faults the execution never reached —
             discard them rather than perturb the final clocks. *)
          continue := false
        else begin
          (* Nothing runnable but threads remain. Pending timers may
             still revive the machine (a kill releases joiners, a
             penalty expires), so fire the earliest batch before
             concluding deadlock. *)
          let at = Engine.Pqueue.peek_min_key t.timers in
          if at < max_int then fire_timers t ~upto:at
          else raise (Deadlock (deadlock_report t))
        end
      in
      let uncontrolled t =
        (match t.control with [] -> true | _ -> false)
        && match t.chooser with None -> true | Some _ -> false
      in
      while !continue do
        (match t.abort with
        | Some reason -> raise (Abort_requested reason)
        | None -> ());
        st.events <- st.events + 1;
        t.c_events := !(t.c_events) + 1;
        if st.events > st.max_events then raise Event_limit_exceeded;
        if uncontrolled t then (
          (* the hot path: identical to the pre-control scheduler *)
          let pid = pick t in
          if pid < 0 then no_runnable ()
          else if Engine.Pqueue.peek_min_key t.timers <= t.pick_key then
            fire_timers t ~upto:t.pick_key
          else dispatch t t.procs.(pid))
        else
          match controlled_pick t with
          | Some (key, picked) ->
            if Engine.Pqueue.peek_min_key t.timers <= key then fire_timers t ~upto:key
            else (
              match picked with
              | `Default p -> dispatch t p
              | `Forced (p, tid, consume) ->
                if consume then (
                  match t.control with
                  | _ :: rest -> t.control <- rest
                  | [] -> ());
                (* No [pick] set a horizon for this dispatch: admit no
                   direct charge in its slice. *)
                t.horizon <- 0;
                if extract_thread t p tid then dispatch_thread t p tid
                else t.control_diverged <- true)
          | None -> no_runnable ()
      done)

exception Main_not_returned

let run t main =
  let result = ref None in
  execute t (fun () -> result := Some (main ()));
  match !result with Some v -> v | None -> raise Main_not_returned

(* A run whose main thread is killed still completes once every other
   thread finishes: the outcome never needs main's value. *)
let run_outcome t main =
  match execute t main with
  | () -> Completed
  | exception Deadlock msg ->
    Aborted { reason = Deadlocked msg; diagnostics = diagnostics t }
  | exception Event_limit_exceeded ->
    Aborted { reason = Event_limit; diagnostics = diagnostics t }
  | exception Thread_crash (name, e) ->
    Aborted { reason = Crashed (name, e); diagnostics = diagnostics t }
  | exception Abort_requested reason ->
    Aborted { reason = Stop_requested reason; diagnostics = diagnostics t }
