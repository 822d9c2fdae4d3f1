type tid = int

type fork_spec = { f : unit -> unit; proc : int option; prio : int; name : string }

type annotation =
  | A_sync_word of Memory.addr
  | A_relaxed_word of Memory.addr
  | A_lock_request of { lock : Memory.addr; lock_name : string }
  | A_lock_acquire of { lock : Memory.addr; lock_name : string; spin_wait : bool }
  | A_lock_release of { lock : Memory.addr; lock_name : string }
  | A_adaptation of { obj_name : string; kind : string; label : string }

(* Result of one fused lock probe (see [lock_probe_timed]). *)
type probe_result = Probe_acquired | Probe_expired | Probe_retrying

type _ Effect.t +=
  | E_alloc : int option * int -> Memory.addr array Effect.t
  | E_read : Memory.addr -> int Effect.t
  | E_write : Memory.addr * int -> unit Effect.t
  | E_fetch_and_or : Memory.addr * int -> int Effect.t
  | E_fetch_and_add : Memory.addr * int -> int Effect.t
  | E_swap : Memory.addr * int -> int Effect.t
  | E_cas : Memory.addr * int * int -> bool Effect.t
  | E_work : int -> unit Effect.t
  | E_work_instrs : int -> unit Effect.t
  | E_delay : int -> unit Effect.t
  | E_now : int Effect.t
  | E_fork : fork_spec -> tid Effect.t
  | E_join : tid -> unit Effect.t
  | E_yield : unit Effect.t
  | E_block : unit Effect.t
  | E_wakeup : tid -> unit Effect.t
  | E_self : tid Effect.t
  | E_my_processor : int Effect.t
  | E_set_priority : tid * int -> unit Effect.t
  | E_priority_of : tid -> int Effect.t
  | E_processors : int Effect.t
  | E_random : int -> int Effect.t
  | E_trace : string -> unit Effect.t
  | E_annotate : annotation -> unit Effect.t
  | E_thread_name : tid -> string Effect.t
  (* Fused operations: one effect standing for a short fixed sequence
     of charges plus one memory operation. The scheduler stages the
     sequence through the same charge/dispatch machinery as the
     decomposed ops, so dispatch counts, charge times and the memory
     op's linearization point are identical — fusion only removes the
     intermediate continuation captures. Payload fields:
     [E_lock_probe (word, pre_instrs, retry_instrs, gap_ns, until)],
     [E_read_hint (addr, pre_ns, gap_ns, expect)], and the retry tail of
     a failed probe, [E_probe_retry (retry_instrs, gap_ns)]. *)
  | E_lock_probe : Memory.addr * int * int * int * int -> probe_result Effect.t
  | E_read_hint : Memory.addr * int * int * int -> int Effect.t
  | E_probe_retry : int * int -> probe_result Effect.t

(* {2 Fast paths}

   When the scheduler marks the current dispatch slice as fast
   ([Mstate.fast] — no schedule control, no pending abort), a memory or
   work charge that completes strictly before the slice's
   [Mstate.limit] is applied directly to the flat machine state instead
   of performing an effect: no continuation capture, no handler round
   trip, no dispatch. The limit is the lookahead bound the dispatcher
   computed for the slice: before it, the dispatcher would pick this
   same thread again, with no fault timer due and no quantum expiry in
   between, so each fast charge stands for exactly one dispatch. It
   replicates what its effect would have done — same clock advance,
   same event count, same access record to access subscribers, same
   counter totals (batched in accumulators folded at slice end), same
   bank occupancy — and bails out to the effect whenever the operation
   would reach the limit, the event-limit boundary or an unallocated
   address. *)

(* [st.tid]/[st.pid] are set by the dispatcher from in-range values,
   so the per-op accumulator bumps skip the bounds checks. *)
let[@inline] bump arr i ns = Array.unsafe_set arr i (Array.unsafe_get arr i + ns)

let[@inline] fast_charge (st : Mstate.t) ns =
  let pid = st.pid in
  bump st.cpu st.tid ns;
  bump st.busy pid ns;
  bump st.pnow pid ns;
  bump st.slice pid ns;
  st.events <- st.events + 1;
  st.acc_events <- st.acc_events + 1

(* Charge [ns] of pure computation if it completes before the slice's
   limit and the event limit; false = caller performs the effect. *)
let fast_work (st : Mstate.t) ns =
  st.fast
  && Array.unsafe_get st.pnow st.pid + ns < st.limit
  && st.events < st.max_events
  && begin
       fast_charge st ns;
       true
     end

(* Charge one memory access (timing only); the caller then applies the
   word operation itself. [Memory.try_reserve] books the access only
   if it completes before the slice's limit. *)
let fast_mem (st : Mstate.t) a kind =
  st.fast
  && st.events < st.max_events
  && begin
       let pid = st.pid in
       let pnow = Array.unsafe_get st.pnow pid in
       let ns =
         Memory.try_reserve st.mem st.cfg ~from_node:pid a kind ~start:pnow
           ~budget:(st.limit - pnow)
       in
       ns >= 0
       && begin
            (match st.on_access with None -> () | Some emit -> emit a kind);
            fast_charge st ns;
            true
          end
     end

let alloc ?node n = Effect.perform (E_alloc (node, n))
let alloc1 ?node () = (Effect.perform (E_alloc (node, 1))).(0)

let read a =
  let st = Mstate.get () in
  if fast_mem st a Memory.Read_access then begin
    st.acc_read <- st.acc_read + 1;
    Memory.fast_read st.mem a
  end
  else Effect.perform (E_read a)

let write a v =
  let st = Mstate.get () in
  if fast_mem st a Memory.Write_access then begin
    st.acc_write <- st.acc_write + 1;
    Memory.fast_write st.mem a v
  end
  else Effect.perform (E_write (a, v))

let fetch_and_or a v =
  let st = Mstate.get () in
  if fast_mem st a Memory.Atomic_access then begin
    st.acc_atomic <- st.acc_atomic + 1;
    Memory.fast_fetch_and_or st.mem a v
  end
  else Effect.perform (E_fetch_and_or (a, v))

let fetch_and_add a v =
  let st = Mstate.get () in
  if fast_mem st a Memory.Atomic_access then begin
    st.acc_atomic <- st.acc_atomic + 1;
    Memory.fast_fetch_and_add st.mem a v
  end
  else Effect.perform (E_fetch_and_add (a, v))

let swap a v =
  let st = Mstate.get () in
  if fast_mem st a Memory.Atomic_access then begin
    st.acc_atomic <- st.acc_atomic + 1;
    Memory.fast_swap st.mem a v
  end
  else Effect.perform (E_swap (a, v))

let compare_and_swap a ~expected ~desired =
  let st = Mstate.get () in
  if fast_mem st a Memory.Atomic_access then begin
    st.acc_atomic <- st.acc_atomic + 1;
    Memory.fast_compare_and_swap st.mem a ~expected ~desired
  end
  else Effect.perform (E_cas (a, expected, desired))

let test_and_set a = fetch_and_or a 1 = 0

let work ns =
  if ns > 0 then begin
    let st = Mstate.get () in
    if not (fast_work st ns) then Effect.perform (E_work ns)
  end

let work_instrs n =
  if n > 0 then begin
    let st = Mstate.get () in
    if not (st.fast && fast_work st (Config.instrs st.cfg n)) then
      Effect.perform (E_work_instrs n)
  end

let delay ns = if ns > 0 then Effect.perform (E_delay ns)

let now () =
  let st = Mstate.get () in
  if st.fast then st.pnow.(st.pid) else Effect.perform E_now

let fork spec = Effect.perform (E_fork spec)
let join tid = Effect.perform (E_join tid)
let yield () = Effect.perform E_yield
let block () = Effect.perform E_block
let wakeup tid = Effect.perform (E_wakeup tid)

let self () =
  let st = Mstate.get () in
  if st.fast then st.tid else Effect.perform E_self

let my_processor () =
  let st = Mstate.get () in
  if st.fast then st.pid else Effect.perform E_my_processor

let set_priority tid prio = Effect.perform (E_set_priority (tid, prio))
let priority_of tid = Effect.perform (E_priority_of tid)
let processors () = Effect.perform E_processors
let random bound = Effect.perform (E_random bound)
let trace msg = Effect.perform (E_trace msg)

(* {2 Fused operations}

   [lock_probe_timed] is one iteration of the canonical spin protocol:
   charge [pre_instrs] of entry-path overhead, test-and-set the lock
   word, and on failure — unless the probe has timed out against
   [until] — charge [retry_instrs] of retry overhead followed by a
   [gap_ns] backoff wait. Exactly the sequence
   [work_instrs pre; test_and_set; (work_instrs retry; work gap)]
   with the timeout read between the probe and the retry, but encoded
   as one effect (one continuation capture) instead of up to four.
   [read_hint] likewise fuses a hint-spin iteration: charge [pre_ns],
   read [a], and charge a [gap_ns] wait when the value still equals
   [expect].

   Both charge their components directly while they fit in a fast
   slice. The first component that does not fit performs the fused
   effect for the rest of the sequence ([E_lock_probe] with no entry
   overhead once that is charged, [E_probe_retry] for the retry tail,
   a plain [E_work] for a lone backoff); with fusion disabled it
   performs the component's own effect and the sequence goes on
   decomposed. Every route is the defining sequence — so the fused
   encoding is unobservable by construction, and toggling
   [Mstate.set_op_fusion] must never change a simulated outcome. *)

(* The tail of a probe once its test-and-set returned [prev]. *)
let probe_after (st : Mstate.t) prev ~retry_instrs ~gap_ns ~until =
  if prev = 0 then Probe_acquired
  else if now () >= until then Probe_expired
  else begin
    let retry_ns = Config.instrs st.cfg retry_instrs in
    if retry_ns > 0 && not (fast_work st retry_ns) then
      if gap_ns > 0 && Mstate.op_fusion_enabled () then
        Effect.perform (E_probe_retry (retry_instrs, gap_ns))
      else begin
        Effect.perform (E_work_instrs retry_instrs);
        work gap_ns;
        Probe_retrying
      end
    else begin
      work gap_ns;
      Probe_retrying
    end
  end

let probe_tas (st : Mstate.t) a ~retry_instrs ~gap_ns ~until =
  if fast_mem st a Memory.Atomic_access then begin
    st.acc_atomic <- st.acc_atomic + 1;
    probe_after st (Memory.fast_fetch_and_or st.mem a 1) ~retry_instrs ~gap_ns ~until
  end
  else if Mstate.op_fusion_enabled () then
    Effect.perform (E_lock_probe (a, 0, retry_instrs, gap_ns, until))
  else probe_after st (Effect.perform (E_fetch_and_or (a, 1))) ~retry_instrs ~gap_ns ~until

let lock_probe_timed ?(pre_instrs = 0) ?(retry_instrs = 0) ?(gap_ns = 0) ~until a =
  let st = Mstate.get () in
  let pre_ns = Config.instrs st.cfg pre_instrs in
  if pre_ns > 0 && not (fast_work st pre_ns) then
    if Mstate.op_fusion_enabled () then
      Effect.perform (E_lock_probe (a, pre_instrs, retry_instrs, gap_ns, until))
    else begin
      Effect.perform (E_work_instrs pre_instrs);
      probe_tas st a ~retry_instrs ~gap_ns ~until
    end
  else probe_tas st a ~retry_instrs ~gap_ns ~until

let lock_probe ?(pre_instrs = 0) ?(retry_instrs = 0) ?(gap_ns = 0) a =
  lock_probe_timed ~pre_instrs ~retry_instrs ~gap_ns ~until:max_int a = Probe_acquired

let hint_after v ~gap_ns ~expect =
  if gap_ns > 0 && v = expect then work gap_ns;
  v

let hint_read (st : Mstate.t) a ~gap_ns ~expect =
  if fast_mem st a Memory.Read_access then begin
    st.acc_read <- st.acc_read + 1;
    hint_after (Memory.fast_read st.mem a) ~gap_ns ~expect
  end
  else if gap_ns > 0 && Mstate.op_fusion_enabled () then
    Effect.perform (E_read_hint (a, 0, gap_ns, expect))
  else hint_after (Effect.perform (E_read a)) ~gap_ns ~expect

let read_hint ?(pre_ns = 0) ?(gap_ns = 0) ~expect a =
  let st = Mstate.get () in
  if pre_ns > 0 && not (fast_work st pre_ns) then
    if Mstate.op_fusion_enabled () then
      Effect.perform (E_read_hint (a, pre_ns, gap_ns, expect))
    else begin
      Effect.perform (E_work pre_ns);
      hint_read st a ~gap_ns ~expect
    end
  else hint_read st a ~gap_ns ~expect

(* Zero-subscriber fast path. The scheduler records here, per domain,
   whether the machine currently running has any annotation
   subscriber; while it has none, [annotate] skips the effect (and
   hence the continuation capture) entirely, making unobserved
   annotations cost one flag read. Per-domain (not global) state keeps
   the flag correct when Engine.Runner executes machines with
   different subscriptions concurrently. *)
let annotations_flag : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let set_annotations_enabled enabled = Domain.DLS.get annotations_flag := enabled
let annotations_enabled () = !(Domain.DLS.get annotations_flag)
let annotate a = if annotations_enabled () then Effect.perform (E_annotate a)
let mark_sync_words addrs = Array.iter (fun a -> annotate (A_sync_word a)) addrs
let mark_relaxed_word a = annotate (A_relaxed_word a)
let thread_name tid = Effect.perform (E_thread_name tid)
