open Butterfly
module Attribute = Adaptive_core.Attribute
module Cost = Adaptive_core.Cost
module Policy = Adaptive_core.Policy
module Sensor = Adaptive_core.Sensor
module Adaptive = Adaptive_core.Adaptive

type advice = Advise_spin | Advise_sleep

exception Misuse of string

(* {1 Implementations}

   The registered implementations (all but [Centralized]) share one
   registration queue (host-side, arrival-ordered, guard-protected) and
   one mailbox word per waiter, homed at the waiter's own memory
   module. The mailbox is the whole migration protocol: 0 = waiting,
   1 = granted (direct handoff; the lock word stays held), 2 = migrate
   (a swap is in progress; re-arm and re-enter). Because every
   contended waiter — spinner, queued, or sleeping — is registered, a
   swap can always find, kick, and count them; because a migrating
   waiter keeps its place in the queue, FIFO order for queued waiters
   is preserved across a swap. *)

type impl = Centralized | Tas | Mcs | Blocking

let impl_id = function Tas -> 0 | Mcs -> 1 | Blocking -> 2 | Centralized -> 3

let impl_label = function
  | Centralized -> "centralized"
  | Tas -> "tas"
  | Mcs -> "mcs"
  | Blocking -> "blocking"

(* The cost profile a registered implementation runs under (the
   centralized word's comes with its waiting policy). [create] and
   [swap_to] take a registered lock's profile from here, so such a
   lock never runs [Centralized]. *)
let registered_profile = function
  | Tas -> Lock_costs.spin
  | Mcs -> Lock_costs.mcs
  | Blocking -> Lock_costs.blocking
  | Centralized -> invalid_arg "Lock_core: the centralized word needs a waiting policy"

(* Seeded defects for the analysis fixtures (never shipped): a swap
   that forgets its sleepers drops them from the queue without a
   wakeup — the classic lost-waiter window the predictor must catch —
   and a swap that "helpfully" grants its sleepers while the swapper
   still owns the lock — the double-grant escape. *)
type bug = Lost_sleeper_on_swap | Double_grant_on_swap

type params = {
  queue_threshold : int;  (* waiters at/above this: adopt the MCS queue *)
  uncontended_max : int;  (* waiters at/below this: adopt plain TAS *)
  hold_ns_threshold : int;  (* mean hold above this: adopt blocking *)
  sample_period : int;
  repeats : int;  (* hysteresis: consecutive matching samples per swap *)
  swap_timeout_ns : int;  (* drain budget before a swap rolls back *)
  swap_grace_ns : int;  (* extra slack before a swap is presumed abandoned *)
}

let default_params =
  {
    queue_threshold = 3;
    uncontended_max = 1;
    hold_ns_threshold = 450_000;
    sample_period = 2;
    repeats = 2;
    swap_timeout_ns = 2_000_000;
    swap_grace_ns = 1_000_000;
  }

type implementation =
  | Central of Waiting.t * Lock_costs.profile
  | Adaptive of Spin_budget.params
  | Fixed of impl
  | Swappable of impl
  | Ladder

type waiter = {
  w_tid : int;
  w_flag : Memory.addr;  (* mailbox, homed at the waiter's node *)
  mutable w_sleeping : bool;  (* true while parked in [Ops.block] *)
  mutable w_kick : int;  (* swap sequence that flagged us; 0 = none *)
}

(* The centralized word's waiting machinery. *)
type central = {
  wait_policy : Waiting.t;
  queue : Lock_sched.t;  (* sleepers awaiting a handoff *)
  advice_word : Memory.addr;  (* 0 none, 1 spin, 2 sleep *)
  scratch : Memory.addr option;  (* reconfiguration's scratch word; None when static *)
  uses_advice : bool;
  mutable successor : int option;
}

(* The registered implementations' shared state and swap protocol. *)
type registry = {
  ctl : Memory.addr;  (* 0 = no swap; else the swap's drain deadline *)
  ack : Memory.addr;  (* migrants not yet re-armed during a swap *)
  impl_word : Memory.addr;  (* current implementation id, for observers *)
  params : params;
  bug : bug option;
  mutable epoch : int;  (* committed swaps *)
  mutable swap_seq : int;  (* identifies the kick a waiter acks *)
  mutable waiters : waiter list;  (* arrival order; the head is granted next *)
  flags : (int, Memory.addr) Hashtbl.t;  (* per-thread mailbox cache *)
  mutable acquired_at : int;
  mutable hold_avg_ns : int;  (* EWMA of ownership spans *)
  mutable swap_rollbacks : int;
  mutable abandoned_recoveries : int;
  mutable probe : (int -> string -> unit) option;
      (* conformance instrumentation: one callback per protocol
         transition, labelled to match [Proto_models.quiescence] *)
}

type state = Word of central | Registered of registry

type t = {
  lock_name : string;
  word : Memory.addr;  (* 0 free, 1 held (stays held across handoffs) *)
  guard : Memory.addr;  (* protects the waiter queue (and mailboxes) *)
  nwait : Memory.addr;  (* waiting-thread count (the monitored variable) *)
  lock_stats : Lock_stats.t;
  swappable : bool;
  mutable impl : impl;
  mutable costs : Lock_costs.profile;  (* the current implementation's *)
  mutable owner : int option;  (* host-side: tid holding the lock word *)
  state : state;
  mutable loop : Adaptive.t option;  (* simple-adapt or the implementation ladder *)
}

let name t = t.lock_name
let stats t = t.lock_stats
let feedback t = t.loop
let current_impl t = t.impl
let waiting_now t = Ops.read t.nwait

let central t op =
  match t.state with
  | Word c -> c
  | Registered _ ->
    invalid_arg
      (Printf.sprintf "Lock_core.%s: lock %s runs %s, not the centralized word" op
         t.lock_name (impl_label t.impl))

let counter f t = match t.state with Registered r -> f r | Word _ -> 0
let epoch = counter (fun r -> r.epoch)
let swap_rollbacks = counter (fun r -> r.swap_rollbacks)
let abandoned_recoveries = counter (fun r -> r.abandoned_recoveries)

let policy t = (central t "policy").wait_policy
let set_successor t tid = (central t "set_successor").successor <- Some tid

let advise t advice =
  let v = match advice with None -> 0 | Some Advise_spin -> 1 | Some Advise_sleep -> 2 in
  Ops.write (central t "advise").advice_word v

(* {1 The declarative implementation ladder} *)

(* The composite contention score the policy ladder reads: the number
   of waiting threads, lifted into [100, 199] when the mean ownership
   span exceeds the deschedule round trip — long holds make spinning
   (either kind) a processor sink, so the ladder prefers blocking. *)
let score t r =
  let waiting = Ops.read t.nwait in
  if waiting = 0 then 0
  else if r.hold_avg_ns > r.params.hold_ns_threshold then 100 + Int.min waiting 99
  else Int.min waiting 99

let rungs = [ Tas; Mcs; Blocking ]

let impl_ladder_spec ?(params = default_params) ?(name = "switch-lock") () =
  let module Spec = Policy.Spec in
  let cost = Lock_costs.swap_implementation in
  let t ~from ~cond ~target =
    {
      Spec.t_from = impl_id from;
      t_cond = cond;
      t_target = impl_id target;
      t_label = Printf.sprintf "swap:%s->%s" (impl_label from) (impl_label target);
      t_repeats = params.repeats;
      t_cost = cost;
    }
  in
  let low = Spec.cond 0 ~hi:params.uncontended_max in
  let queued = Spec.cond params.queue_threshold ~hi:99 in
  let long_hold = Spec.cond 100 in
  {
    Spec.s_name = name;
    s_kind = "lock-impl";
    s_attribute = name ^ ".implementation";
    s_metric = "contention-score";
    s_monotone = Spec.Unordered;
    s_configs =
      List.map (fun i -> { Spec.c_name = impl_label i; c_value = impl_id i }) rungs;
    s_initial = impl_id Tas;
    s_transitions =
      [
        t ~from:Tas ~cond:queued ~target:Mcs;
        t ~from:Tas ~cond:long_hold ~target:Blocking;
        t ~from:Mcs ~cond:low ~target:Tas;
        t ~from:Mcs ~cond:long_hold ~target:Blocking;
        t ~from:Blocking ~cond:low ~target:Tas;
        t ~from:Blocking ~cond:queued ~target:Mcs;
      ];
    (* The metric tops out at 199 (see [score]), so the clamp keeps the
       blocking region reachable. The fallback is an implementation id,
       not a knob value: the ladder must land on a config the lock can
       run. *)
    s_guard =
      Some
        {
          Spec.g_clamp_lo = 0;
          g_clamp_hi = 199;
          g_limit = 4;
          g_cooldown = 8;
          g_fallback = impl_id Tas;
          g_fallback_label = "impl-guardrail-fallback";
          g_fallback_cost = cost;
        };
  }

(* {1 Deadlines} *)

(* When a waiter gives up. [Forever] is [lock]'s waiter, the only one
   that may sleep: a sleeper is released only by an unlock's direct
   handoff, which nothing can cancel at a deadline. [Until d] is
   [lock_timeout]'s, and any [d] at or before the current virtual time,
   negative included, is already past. *)
type deadline = Forever | Until of int

let expired = function Forever -> false | Until d -> Ops.now () >= d
let may_sleep = function Forever -> true | Until _ -> false

(* {1 Guard, waiting count and acquisition bookkeeping} *)

let guard_lock t =
  while not (Ops.test_and_set t.guard) do
    ()
  done

let guard_unlock t = Ops.write t.guard 0

let enter_waiting t =
  let waiting = Ops.fetch_and_add t.nwait 1 + 1 in
  Lock_stats.record_waiting t.lock_stats ~now:(Ops.now ()) ~waiting

let leave_waiting t =
  let waiting = Ops.fetch_and_add t.nwait (-1) - 1 in
  Lock_stats.record_waiting t.lock_stats ~now:(Ops.now ()) ~waiting

(* Whether the current implementation's waiters can sleep: if they
   cannot, waiters burn a processor for the whole ownership span, so
   the owner must never block while holding the lock. *)
let waiters_sleep t =
  match t.state with
  | Word c -> Attribute.get c.wait_policy.Waiting.sleep
  | Registered _ -> t.impl = Blocking

(* Annotation payload construction is guarded on the subscriber flag:
   with no observer the acquire/release paths pay one flag read, not a
   record allocation per operation. *)
let note_acquired t =
  t.owner <- Some (Ops.self ());
  (match t.state with Registered r -> r.acquired_at <- Ops.now () | Word _ -> ());
  if Ops.annotations_enabled () then
    Ops.annotate
      (Ops.A_lock_acquire
         { lock = t.word; lock_name = t.lock_name; spin_wait = not (waiters_sleep t) })

(* A contended acquisition starts: returns the wait's start time. *)
let begin_wait t =
  let since = Ops.now () in
  Lock_stats.on_contended t.lock_stats;
  enter_waiting t;
  since

let acquired t ~since =
  leave_waiting t;
  Lock_stats.on_acquired t.lock_stats ~wait_ns:(Ops.now () - since);
  note_acquired t

(* A timed wait gives up. *)
let timed_out t =
  leave_waiting t;
  Lock_stats.on_timeout t.lock_stats;
  false

(* Transition log for model-conformance tests: each emission is one
   atomic protocol step, labelled exactly as the corresponding rule of
   [Proto_models.quiescence]. Emissions from guard-held sections
   happen while the guard is still held, so the log order is the
   protocol's linearization order. *)
let emit t label =
  match t.state with
  | Registered { probe = Some f; _ } -> f (Ops.self ()) label
  | _ -> ()

let set_transition_probe t probe =
  match t.state with
  | Registered r -> r.probe <- probe
  | Word _ -> invalid_arg "Lock_core.set_transition_probe: a centralized word"

let check_unlock t =
  let me = Ops.self () in
  match t.owner with
  | Some tid when tid = me -> ()
  | owner ->
    let held =
      match owner with
      | Some tid -> " held by " ^ Ops.thread_name tid
      | None -> ", which is not held"
    in
    raise
      (Misuse
         (Printf.sprintf "thread %s unlocked lock %s%s" (Ops.thread_name me) t.lock_name
            held))

(* {1 The centralized word} *)

(* The sleeping path: register under the guard, re-check the lock word
   (an unlock that raced past us would otherwise never wake us), then
   block until an unlock hands the lock over. It looks the queue up
   rather than taking it, so the sleep closure built per contended
   acquisition captures only [t] and [since]. *)
let sleep_until_handoff t ~since =
  let c = central t "lock" in
  Ops.work_instrs t.costs.block_path_instrs;
  Lock_stats.on_block t.lock_stats;
  let me = Ops.self () in
  guard_lock t;
  Lock_sched.register c.queue
    { Lock_sched.tid = me; prio = Ops.priority_of me; enqueued_at = Ops.now () };
  if Ops.test_and_set t.word then begin
    (* The lock freed while we registered: acquire directly. *)
    Lock_sched.cancel c.queue me;
    guard_unlock t;
    acquired t ~since
  end
  else begin
    guard_unlock t;
    Ops.block ();
    (* Woken by an unlock that left the word held for us; restoring the
       thread's library context costs a resume charge. *)
    Ops.work_instrs 800;
    acquired t ~since
  end

(* The shared waiting loop re-consults the mutable attributes and the
   owner's advice word on every probe, so a reconfiguration or a fresh
   advice takes effect for threads already waiting — the
   closely-coupled behaviour adaptation depends on. A timed waiter
   runs the same loop, which never sleeps once given a deadline: it
   probes with the policy's gap and back-off until it wins the word or
   the deadline passes, counted as waiting all the while, so monitors
   see it too. *)
let central_wait t c ~since deadline =
  Combined_wait.wait ~policy:c.wait_policy
    (* Only advisory locks pay for consulting the advice word. *)
    ~advice:(fun () -> if c.uses_advice then Ops.read c.advice_word else 0)
    ?until:(match deadline with Forever -> None | Until d -> Some d)
    ~since
    ~probe:(fun ~gap_ns ~until ->
      (* One spin iteration — the test-and-set, then (decided at its
         completion time, before any retry cost) either the deadline's
         expiry or the retry overhead and the back-off gap — as one
         fused effect. *)
      Lock_stats.on_spin_probe t.lock_stats;
      let result =
        Ops.lock_probe_timed ~retry_instrs:t.costs.Lock_costs.lock_overhead_instrs ~gap_ns
          ~until t.word
      in
      if result = Ops.Probe_acquired then acquired t ~since;
      result)
    ~sleep:(fun () -> sleep_until_handoff t ~since)
    ()
  || timed_out t

let central_release t c =
  (* The owner's advice applies only to its own ownership span. *)
  if c.uses_advice then Ops.write c.advice_word 0;
  if t.costs.Lock_costs.unlock_queue_check || not (Lock_sched.is_empty c.queue) then begin
    guard_lock t;
    let successor = c.successor in
    c.successor <- None;
    match Lock_sched.release_next c.queue ~successor with
    | Some w ->
      (* Direct handoff: the word stays held; the sleeper owns it. *)
      guard_unlock t;
      Lock_stats.on_handoff t.lock_stats;
      t.owner <- Some w.Lock_sched.tid;
      Ops.wakeup w.Lock_sched.tid
    | None ->
      Ops.write t.word 0;
      guard_unlock t
  end
  else Ops.write t.word 0

(* {1 The registered implementations} *)

let probe_gap_ns = 1_000  (* a TAS retry, or a mailbox poll *)
let window_poll_gap_ns = 2_000  (* polling a swap's freeze or drain *)

let annotate_swap t label =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_adaptation { obj_name = t.lock_name; kind = "lock-impl"; label })

(* Wait out a freeze window. Returns false when [deadline] passes
   first. A ctl word whose deadline lies more than the grace
   period in the past means the swapper died mid-swap: any waiter may
   clear the freeze (fail-safe recovery; the implementation is
   whatever the dead swapper left committed). *)
let rec await_unfrozen t r deadline =
  let c = Ops.read r.ctl in
  if c = 0 then true
  else if expired deadline then false
  else if Ops.now () > c + r.params.swap_grace_ns then begin
    if Ops.compare_and_swap r.ctl ~expected:c ~desired:0 then begin
      r.abandoned_recoveries <- r.abandoned_recoveries + 1;
      emit t "recover";
      annotate_swap t "swap-abandoned-recovery"
    end;
    await_unfrozen t r deadline
  end
  else begin
    Ops.delay window_poll_gap_ns;
    await_unfrozen t r deadline
  end

let mailbox r =
  let me = Ops.self () in
  match Hashtbl.find_opt r.flags me with
  | Some flag -> flag
  | None ->
    let flag = Ops.alloc1 ~node:(Ops.my_processor ()) () in
    Ops.mark_sync_words [| flag |];
    Hashtbl.add r.flags me flag;
    flag

let remove_record r w = r.waiters <- List.filter (fun x -> not (x == w)) r.waiters

(* Acquired while registered: withdraw the registration under the
   guard, then take ownership. *)
let withdraw_acquired t r w ~since label =
  guard_lock t;
  remove_record r w;
  emit t label;
  guard_unlock t;
  acquired t ~since;
  true

(* Ack a migration kick (guard held): only the kick of the swap still
   in progress is acknowledged — a stale flag from a rolled-back swap
   is simply re-armed. *)
let ack_kick r w =
  if Ops.read r.ctl <> 0 && w.w_kick = r.swap_seq then begin
    w.w_kick <- 0;
    ignore (Ops.fetch_and_add r.ack (-1))
  end

(* {1 The swap protocol}

   Runs in the current lock holder only, so the lock word stays held
   for the whole window — no acquisition can race a swap. Freeze (new
   arrivals park behind [ctl]), kick (every registered waiter's
   mailbox is set to 2; sleepers are woken), drain (wait for every
   kicked waiter to re-arm), then commit — or roll back to the old
   implementation if the drain does not quiesce in time (a stalled or
   killed participant must not wedge the lock in a half-swapped
   state). Migrating waiters keep their queue slots:
   quiescence means everyone observes the implementation flip between
   two probe iterations, never inside one. *)
let swap_to t target =
  let r =
    match t.state with
    | Registered r when t.swappable -> r
    | Registered _ | Word _ ->
      raise
        (Misuse
           (Printf.sprintf "lock %s is pinned to %s: implementation swaps are disabled"
              t.lock_name (impl_label t.impl)))
  in
  (match t.owner with
  | Some tid when tid = Ops.self () -> ()
  | _ ->
    raise
      (Misuse
         (Printf.sprintf "thread %s swapped lock %s it does not hold"
            (Ops.thread_name (Ops.self ())) t.lock_name)));
  let costs = registered_profile target in
  if target = t.impl then true
  else begin
    let label = Printf.sprintf "%s->%s" (impl_label t.impl) (impl_label target) in
    (* Freeze before announcing: a swapper killed at the swap-begin
       annotation (the chaos fault point) must leave the freeze behind
       so the waiters' abandoned-swap recovery has something to age
       out. *)
    let deadline = Ops.now () + r.params.swap_timeout_ns in
    Ops.write r.ctl deadline;
    emit t "freeze";
    annotate_swap t ("swap-begin:" ^ label);
    guard_lock t;
    r.swap_seq <- r.swap_seq + 1;
    let kicked =
      List.filter
        (fun w ->
          if not w.w_sleeping then true
          else
            match r.bug with
            | Some Lost_sleeper_on_swap ->
              (* Seeded defect: the swap forgets its sleepers — they
                 are dropped from the queue without a wakeup and the
                 new implementation never learns of them. *)
              remove_record r w;
              false
            | Some Double_grant_on_swap ->
              (* Seeded defect: the kick grants the sleeper instead of
                 migrating it — while the swapper still owns the lock,
                 so two threads hold it at once. *)
              remove_record r w;
              Ops.write w.w_flag 1;
              Ops.wakeup w.w_tid;
              false
            | None -> true)
        r.waiters
    in
    Ops.write r.ack (List.length kicked);
    List.iter
      (fun w ->
        w.w_kick <- r.swap_seq;
        Ops.write w.w_flag 2;
        if w.w_sleeping then Ops.wakeup w.w_tid)
      kicked;
    emit t "kick";
    guard_unlock t;
    let rec drain () =
      if Ops.read r.ack = 0 then true
      else if Ops.now () >= deadline then false
      else begin
        Ops.delay window_poll_gap_ns;
        drain ()
      end
    in
    (* A drained swap must still re-validate ownership of the freeze:
       a swapper descheduled past deadline+grace inside its own drain
       (a stall fault in the swap window) resumes to find every ack in
       — but the waiters have long since aged the freeze out
       (abandoned-swap recovery), re-entered, and possibly re-parked
       under the old implementation. Flipping now would strand those
       sleepers under a release path that never wakes them. The guard
       holds parking waiters off while the flip lands; a recovery that
       already cleared [ctl] makes the re-check fail and the swap roll
       back instead. *)
    let committed =
      (if drain () then begin
         emit t "drain-ok";
         true
       end
       else begin
         emit t "drain-timeout";
         false
       end)
      && begin
           guard_lock t;
           if Ops.read r.ctl = deadline then begin
             t.impl <- target;
             t.costs <- costs;
             r.epoch <- r.epoch + 1;
             Ops.write r.impl_word (impl_id target);
             Ops.write r.ctl 0;
             emit t "commit";
             guard_unlock t;
             true
           end
           else begin
             emit t "stolen";
             guard_unlock t;
             false
           end
         end
    in
    if committed then begin
      annotate_swap t ("swap-commit:" ^ label);
      true
    end
    else begin
      r.swap_rollbacks <- r.swap_rollbacks + 1;
      Ops.write r.ack 0;
      Ops.write r.ctl 0;
      emit t "rollback";
      annotate_swap t ("swap-rollback:" ^ label);
      false
    end
  end

let registered_release t r =
  match t.impl with
  | Centralized -> assert false (* see [registered_profile] *)
  | Tas ->
    Ops.write t.word 0;
    emit t "free"
  | Mcs | Blocking -> begin
    guard_lock t;
    match r.waiters with
    | [] ->
      Ops.write t.word 0;
      emit t "free";
      guard_unlock t
    | w :: rest ->
      (* Direct handoff to the queue's head: the word stays held. *)
      r.waiters <- rest;
      Ops.write w.w_flag 1;
      let sleeping = w.w_sleeping in
      t.owner <- Some w.w_tid;
      emit t "grant";
      guard_unlock t;
      Lock_stats.on_handoff t.lock_stats;
      if sleeping then Ops.wakeup w.w_tid
  end

(* Timed waiters never sleep (a direct handoff cannot be cancelled at
   a deadline, so they poll instead), exactly as on the centralized
   word. *)
let rec wait_loop t r w ~since deadline =
  if expired deadline then timeout_cleanup t r w ~since
  else begin
    match t.impl with
    | Centralized -> assert false (* see [registered_profile] *)
    | Tas ->
      Lock_stats.on_spin_probe t.lock_stats;
      if
        Ops.lock_probe ~retry_instrs:Lock_costs.spin.Lock_costs.lock_overhead_instrs
          ~gap_ns:probe_gap_ns t.word
      then (* Won the race on the word. *)
        withdraw_acquired t r w ~since "acquire"
      else begin
        match Ops.read w.w_flag with
        | 0 -> wait_loop t r w ~since deadline
        | f -> on_flag t r w f ~since deadline
      end
    | Blocking when may_sleep deadline ->
      (* The check-then-block is serialized against grants and kicks
         by the guard: either we see the mailbox already set, or the
         writer sees [w_sleeping] and sends the wakeup (sticky, so a
         wakeup between our guard release and the block is kept).
         The implementation is re-checked under the same guard: a
         swap commit (which flips [t.impl] with the guard held) may
         have slipped in since the dispatch above, and parking under
         TAS/MCS would sleep behind a release that never wakes us. *)
      guard_lock t;
      if t.impl <> Blocking then begin
        guard_unlock t;
        wait_loop t r w ~since deadline
      end
      else begin
        let f = Ops.read w.w_flag in
        if f = 0 then begin
          w.w_sleeping <- true;
          emit t "park";
          guard_unlock t;
          Lock_stats.on_block t.lock_stats;
          Ops.block ();
          w.w_sleeping <- false;
          (* Restoring the thread's library context after a wakeup. *)
          Ops.work_instrs 800;
          wait_loop t r w ~since deadline
        end
        else begin
          guard_unlock t;
          on_flag t r w f ~since deadline
        end
      end
    | Mcs | Blocking ->
      (* MCS waiters and timed waiters poll their own mailbox. *)
      Lock_stats.on_spin_probe t.lock_stats;
      let f = Ops.read_hint ~gap_ns:probe_gap_ns ~expect:0 w.w_flag in
      if f = 0 then wait_loop t r w ~since deadline
      else on_flag t r w f ~since deadline
  end

and on_flag t r w f ~since deadline =
  if f = 1 then
    (* Granted: the releaser handed the held word directly to us. *)
    withdraw_acquired t r w ~since "granted"
  else begin
    (* f = 2: a swap kicked us. Re-arm the mailbox, acknowledge, wait
       out the freeze, then resume waiting under whatever
       implementation the swap left committed — still in our queue
       slot, so queue order survives the migration. *)
    guard_lock t;
    Ops.write w.w_flag 0;
    ack_kick r w;
    emit t "ack";
    guard_unlock t;
    if await_unfrozen t r deadline then emit t "unfrozen";
    wait_loop t r w ~since deadline
  end

and timeout_cleanup t r w ~since =
  guard_lock t;
  if List.exists (fun x -> x == w) r.waiters then begin
    (* Still registered: withdraw. If a kick is in flight for us, the
       withdrawal is also the acknowledgment — a timed-out waiter must
       not stall the drain. *)
    if Ops.read w.w_flag = 2 then ack_kick r w;
    remove_record r w;
    emit t "timeout";
    guard_unlock t;
    timed_out t
  end
  else begin
    (* Already popped: the mailbox says whether a grant crossed the
       deadline. A grant that landed exactly at expiry made us the
       owner — take the lock properly and release it, so the grant is
       neither lost nor doubled. *)
    let f = Ops.read w.w_flag in
    if f = 1 then emit t "timeout-grant" else emit t "timeout";
    guard_unlock t;
    if f = 1 then begin
      acquired t ~since;
      unlock t;
      Lock_stats.on_timeout t.lock_stats;
      false
    end
    else timed_out t
  end

(* The adaptation point, and the only place a lock's loop ticks. A
   registered lock ticks before the release: only the holder may swap,
   so the implementation ladder runs while ownership is still ours.
   The centralized word ticks after the release: simple-adapt only
   rewrites waiting attributes, which needs no ownership, so the
   sample and any reconfiguration stay out of the ownership span and
   a waiter is handed the lock first. *)
and unlock t =
  check_unlock t;
  (match t.state with
  | Registered r ->
    let hold = Ops.now () - r.acquired_at in
    r.hold_avg_ns <- ((3 * r.hold_avg_ns) + hold) / 4;
    tick t
  | Word _ -> ());
  t.owner <- None;
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_release { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_unlock t.lock_stats;
  Ops.work_instrs t.costs.Lock_costs.unlock_overhead_instrs;
  match t.state with
  | Word c ->
    central_release t c;
    tick t
  | Registered r -> registered_release t r

and tick t = match t.loop with Some loop -> ignore (Adaptive.tick loop) | None -> ()

(* Contended acquisition: wait out any freeze, then register under the
   guard — re-testing the word there, since in queue/blocking mode a
   release with an empty queue frees the word and would never grant to
   a registration it did not see. The ctl re-check inside the guard
   means no waiter can slip into the queue between a swap's freeze and
   its kick and then park under an implementation about to vanish. *)
let rec registered_entry t r ~since deadline =
  if not (await_unfrozen t r deadline) then begin
    emit t "timeout";
    timed_out t
  end
  else begin
    guard_lock t;
    if Ops.read r.ctl <> 0 then begin
      guard_unlock t;
      registered_entry t r ~since deadline
    end
    else if Ops.test_and_set t.word then begin
      emit t "acquire";
      guard_unlock t;
      acquired t ~since;
      true
    end
    else begin
      let flag = mailbox r in
      let w =
        { w_tid = Ops.self (); w_flag = flag; w_sleeping = false; w_kick = 0 }
      in
      Ops.write flag 0;
      r.waiters <- r.waiters @ [ w ];
      emit t "register";
      guard_unlock t;
      wait_loop t r w ~since deadline
    end
  end


(* {1 Acquire / release: the shared fast path} *)

let note_request t =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_request { lock = t.word; lock_name = t.lock_name })

(* Entry overhead + test-and-set, fused into one staged effect. *)
let fast_acquire t =
  Ops.lock_probe ~pre_instrs:t.costs.Lock_costs.lock_overhead_instrs t.word
  && begin
       emit t "acquire";
       Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
       note_acquired t;
       true
     end

(* The one acquire path: [lock] is [acquire] with no deadline. *)
let acquire t deadline =
  note_request t;
  Lock_stats.on_lock t.lock_stats;
  fast_acquire t
  ||
  let since = begin_wait t in
  match t.state with
  | Word c -> central_wait t c ~since deadline
  | Registered r -> registered_entry t r ~since deadline

let lock t = ignore (acquire t Forever)
let lock_timeout t ~deadline_ns = acquire t (Until deadline_ns)

let try_lock t =
  Lock_stats.on_lock t.lock_stats;
  fast_acquire t

(* {1 Construction} *)

let make name lock_stats words ~impl ~swappable ~costs state =
  {
    lock_name = name;
    word = words.(0);
    guard = words.(1);
    nwait = words.(2);
    lock_stats;
    swappable;
    impl;
    costs;
    owner = None;
    state;
    loop = None;
  }

(* A registered-implementation lock: six words at the home node and,
   on the ladder, the feedback loop that drives [swap_to]; a
   [Swappable] lock is driven by explicit swaps (fixtures, benchmarks). *)
let registered_lock name lock_stats ~home ~params ~bug ~initial ~swappable ~ladder =
  let costs = registered_profile initial in
  let words = Ops.alloc ~node:home 6 in
  Ops.mark_sync_words words;
  let r =
    {
      ctl = words.(3);
      ack = words.(4);
      impl_word = words.(5);
      params;
      bug;
      epoch = 0;
      swap_seq = 0;
      waiters = [];
      flags = Hashtbl.create 16;
      acquired_at = 0;
      hold_avg_ns = 0;
      swap_rollbacks = 0;
      abandoned_recoveries = 0;
      probe = None;
    }
  in
  let t = make name lock_stats words ~impl:initial ~swappable ~costs (Registered r) in
  if impl_id initial <> 0 then Ops.write r.impl_word (impl_id initial);
  if ladder then begin
    let sensor =
      Sensor.make ~period:params.sample_period ~overhead_instrs:40 (fun () -> score t r)
    in
    t.loop <-
      Some
        (Adaptive.create
           ~spec:(impl_ladder_spec ~params ~name ())
           ~home ~sensor
           ~read:(fun () -> impl_id t.impl)
           ~apply:(fun v ->
             let target = List.find (fun i -> impl_id i = v) rungs in
             target = t.impl || swap_to t target))
  end;
  t

(* A centralized-word lock: four words at the home node, plus
   reconfiguration's scratch word when the policy is mutable. *)
let central_lock name lock_stats ~home ~sched ~advisory policy costs =
  let words = Ops.alloc ~node:home 4 in
  Ops.mark_sync_words words;
  (* [Waiting.freeze] freezes every attribute together, so one
     attribute's mutability tells whether the policy is
     reconfigurable. *)
  let scratch =
    if Attribute.mutability policy.Waiting.spin_count then begin
      let w = Ops.alloc1 ~node:home () in
      Ops.mark_sync_words [| w |];
      Some w
    end
    else None
  in
  make name lock_stats words ~impl:Centralized ~swappable:false ~costs
    (Word
       {
         wait_policy = policy;
         queue = Lock_sched.create sched;
         advice_word = words.(3);
         scratch;
         uses_advice = advisory;
         successor = None;
       })

(* The adaptive lock: the centralized word under a mutable combined
   policy of [n] spins, plus the simple-adapt loop. The loop ticks at
   every unlock; its sensor samples the waiting count every
   [sample_period]-th tick, and each applied transition rewrites the
   waiting attributes as one Table 8 reconfiguration. *)
let adaptive_lock name lock_stats ~home ~sched ~advisory (p : Spin_budget.params) =
  let policy = Waiting.combined ~node:home ~spins:p.n () in
  let t =
    central_lock name lock_stats ~home ~sched ~advisory policy Lock_costs.reconfigurable
  in
  let sensor =
    Sensor.make ~period:p.sample_period ~overhead_instrs:40 (fun () -> Ops.read t.nwait)
  in
  let budget = Spin_budget.create p in
  t.loop <-
    Some
      (Adaptive.create
         ~spec:(Spin_budget.policy_spec ~params:p ~name ())
         ~home ~sensor
         ~read:(fun () -> Spin_budget.spins budget)
         ~apply:(fun v ->
           Spin_budget.set budget v;
           Spin_budget.apply budget policy;
           Lock_stats.on_reconfigure lock_stats;
           true));
  t

(* Each implementation reads only its own arguments; passing one that
   it would ignore is an error rather than a silent no-op. *)
let create ?name ?(trace = false) ?sched ?advisory ?params ?bug ~home ~impl () =
  let only applies arg = function
    | Some _ -> invalid_arg (Printf.sprintf "Lock_core.create: ?%s applies only to %s" arg applies)
    | None -> ()
  in
  (match impl with
  | Central _ | Adaptive _ ->
    let registered = "the registered implementations (Fixed, Swappable, Ladder)" in
    only registered "params" params;
    only registered "bug" bug
  | Fixed _ | Swappable _ | Ladder ->
    let word = "the centralized word (Central, Adaptive)" in
    only word "sched" sched;
    only word "advisory" advisory);
  let sched = Option.value sched ~default:Lock_sched.Fcfs
  and advisory = Option.value advisory ~default:false
  and params = Option.value params ~default:default_params in
  let name = match name with Some n -> n | None -> "lock" in
  let lock_stats = Lock_stats.create ~trace name in
  match impl with
  | Central (policy, costs) ->
    central_lock name lock_stats ~home ~sched ~advisory policy costs
  | Adaptive p -> adaptive_lock name lock_stats ~home ~sched ~advisory p
  | Fixed initial ->
    registered_lock name lock_stats ~home ~params ~bug ~initial ~swappable:false ~ladder:false
  | Swappable initial ->
    registered_lock name lock_stats ~home ~params ~bug ~initial ~swappable:true ~ladder:false
  | Ladder ->
    registered_lock name lock_stats ~home ~params ~bug ~initial:Tas ~swappable:true
      ~ladder:true

(* Reconfiguration (the paper's Psi), priced as Table 8 and only on a
   lock whose waiting policy is mutable. *)

let scratch_word t op =
  match (central t op).scratch with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "Lock_core.%s: lock %s has a fixed waiting policy" op t.lock_name)

let configure_waiting t ?spin_count ?sleep () =
  Cost.charge ~scratch:(scratch_word t "configure_waiting")
    Lock_costs.configure_waiting_policy;
  let p = (central t "configure_waiting").wait_policy in
  let update attr = function Some v -> Attribute.set attr v | None -> () in
  update p.Waiting.spin_count spin_count;
  update p.Waiting.sleep sleep;
  Lock_stats.on_reconfigure t.lock_stats

let configure_scheduler t kind =
  Cost.charge ~scratch:(scratch_word t "configure_scheduler") Lock_costs.configure_scheduler;
  Lock_sched.set_kind (central t "configure_scheduler").queue kind;
  Lock_stats.on_reconfigure t.lock_stats

let acquire_ownership t =
  ignore (scratch_word t "acquire_ownership");
  Ops.work_instrs Lock_costs.acquisition_instrs;
  Attribute.acquire (policy t).Waiting.spin_count

let release_ownership t =
  ignore (scratch_word t "release_ownership");
  Attribute.release (policy t).Waiting.spin_count
