open Butterfly
module Attribute = Adaptive_core.Attribute
module Cost = Adaptive_core.Cost

type advice = Advise_spin | Advise_sleep

exception Misuse of string

type t = {
  lock_name : string;
  word : Memory.addr;  (* 0 free, 1 held *)
  guard : Memory.addr;  (* protects the registration queue *)
  nwait : Memory.addr;  (* waiting-thread count (the monitored variable) *)
  advice_word : Memory.addr;  (* 0 none, 1 spin, 2 sleep *)
  scratch : Memory.addr option;  (* reconfiguration's scratch word; None when static *)
  queue : Lock_sched.t;
  wait_policy : Waiting.t;
  costs : Lock_costs.profile;
  uses_advice : bool;
  lock_stats : Lock_stats.t;
  mutable successor : int option;
  mutable owner : int option;  (* host-side: tid holding the lock word *)
}

let create ?name ?(trace = false) ?(sched = Lock_sched.Fcfs) ?(advisory = false) ~home
    ~policy ~costs () =
  let name = match name with Some n -> n | None -> "lock" in
  let words = Ops.alloc ~node:home 4 in
  Ops.mark_sync_words words;
  (* [Waiting.freeze] freezes every attribute together, so one
     attribute's mutability tells whether the policy is reconfigurable. *)
  let scratch =
    if Attribute.mutability policy.Waiting.spin_count then begin
      let w = Ops.alloc1 ~node:home () in
      Ops.mark_sync_words [| w |];
      Some w
    end
    else None
  in
  {
    lock_name = name;
    word = words.(0);
    guard = words.(1);
    nwait = words.(2);
    advice_word = words.(3);
    scratch;
    queue = Lock_sched.create sched;
    wait_policy = policy;
    costs;
    uses_advice = advisory;
    lock_stats = Lock_stats.create ~trace name;
    successor = None;
    owner = None;
  }

let name t = t.lock_name
let stats t = t.lock_stats
let policy t = t.wait_policy
let set_successor t tid = t.successor <- Some tid

let advise t advice =
  let v = match advice with None -> 0 | Some Advise_spin -> 1 | Some Advise_sleep -> 2 in
  Ops.write t.advice_word v

let waiting_now t = Ops.read t.nwait

let guard_lock t =
  while not (Ops.test_and_set t.guard) do
    ()
  done

let guard_unlock t = Ops.write t.guard 0

let max_backoff_ns = Combined_wait.max_backoff_ns

let enter_waiting t =
  let waiting = Ops.fetch_and_add t.nwait 1 + 1 in
  Lock_stats.record_waiting t.lock_stats ~now:(Ops.now ()) ~waiting

let leave_waiting t =
  let waiting = Ops.fetch_and_add t.nwait (-1) - 1 in
  Lock_stats.record_waiting t.lock_stats ~now:(Ops.now ()) ~waiting

(* Whether the current waiting policy can put waiters to sleep: if it
   cannot, waiters burn a processor for the whole ownership span, so
   the owner must never block while holding the lock. *)
let spin_mode t = not (Attribute.get t.wait_policy.Waiting.sleep)

(* Annotation payload construction is guarded on the subscriber flag:
   with no observer the acquire/release paths pay one flag read, not a
   record allocation per operation. *)
let note_acquired t =
  t.owner <- Some (Ops.self ());
  if Ops.annotations_enabled () then
    Ops.annotate
      (Ops.A_lock_acquire
         { lock = t.word; lock_name = t.lock_name; spin_wait = spin_mode t })

let acquired t ~since =
  leave_waiting t;
  Lock_stats.on_acquired t.lock_stats ~wait_ns:(Ops.now () - since);
  note_acquired t

(* The sleeping path: register under the guard, re-check the lock word
   (an unlock that raced past us would otherwise never wake us), then
   block until an unlock hands the lock over. *)
let sleep_until_handoff t ~since =
  Ops.work_instrs t.costs.block_path_instrs;
  Lock_stats.on_block t.lock_stats;
  let me = Ops.self () in
  guard_lock t;
  Lock_sched.register t.queue
    { Lock_sched.tid = me; prio = Ops.priority_of me; enqueued_at = Ops.now () };
  if Ops.test_and_set t.word then begin
    (* The lock freed while we registered: acquire directly. *)
    Lock_sched.cancel t.queue me;
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

let contended_path t =
  let since = Ops.now () in
  Lock_stats.on_contended t.lock_stats;
  enter_waiting t;
  (* The shared waiting loop re-consults the mutable attributes and the
     owner's advice word on every probe, so a reconfiguration or a
     fresh advice takes effect for threads already waiting — the
     closely-coupled behaviour adaptation depends on. *)
  Combined_wait.wait ~policy:t.wait_policy
    (* Only advisory locks pay for consulting the advice word. *)
    ~advice:(fun () -> if t.uses_advice then Ops.read t.advice_word else 0)
    ~since
    ~probe:(fun ~gap_ns ->
      (* One spin iteration — the test-and-set plus, on failure, the
         retry overhead and the back-off gap — as one fused effect. *)
      Lock_stats.on_spin_probe t.lock_stats;
      if
        Ops.lock_probe ~retry_instrs:t.costs.Lock_costs.lock_overhead_instrs ~gap_ns
          t.word
      then begin
        acquired t ~since;
        true
      end
      else false)
    ~sleep:(fun () -> sleep_until_handoff t ~since)
    ()

let lock t =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_request { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_lock t.lock_stats;
  (* Entry overhead + test-and-set, fused into one staged effect. *)
  if Ops.lock_probe ~pre_instrs:t.costs.Lock_costs.lock_overhead_instrs t.word then begin
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
    note_acquired t
  end
  else contended_path t

let try_lock t =
  Lock_stats.on_lock t.lock_stats;
  let got = Ops.lock_probe ~pre_instrs:t.costs.Lock_costs.lock_overhead_instrs t.word in
  if got then begin
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
    note_acquired t
  end;
  got

(* Timed acquisition: the waiting policy's spin phase bounded by an
   absolute virtual-time deadline (the Waiting timeout generalized to
   a per-call deadline). A timed waiter never sleeps — a sleeping
   waiter is released only by an unlock's direct handoff, which cannot
   be cancelled at a deadline — so it probes with the policy's
   gap/backoff schedule until either the word is won or the deadline
   passes. The waiting count is maintained exactly as for a blocking
   acquisition, so monitors and adaptive policies see timed waiters. *)
let lock_timeout t ~deadline_ns =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_request { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_lock t.lock_stats;
  if Ops.lock_probe ~pre_instrs:t.costs.Lock_costs.lock_overhead_instrs t.word then begin
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
    note_acquired t;
    true
  end
  else begin
    let since = Ops.now () in
    Lock_stats.on_contended t.lock_stats;
    enter_waiting t;
    (* Each iteration is one fused probe: test-and-set, then — decided
       at the probe's completion time, before any retry cost — either
       deadline expiry or the retry overhead and back-off gap. *)
    let rec wait_loop gap =
      Lock_stats.on_spin_probe t.lock_stats;
      match
        Ops.lock_probe_timed ~retry_instrs:t.costs.Lock_costs.lock_overhead_instrs
          ~gap_ns:gap ~until:deadline_ns t.word
      with
      | Ops.Probe_acquired ->
        acquired t ~since;
        true
      | Ops.Probe_expired ->
        leave_waiting t;
        Lock_stats.on_timeout t.lock_stats;
        false
      | Ops.Probe_retrying ->
        let gap =
          if Attribute.get t.wait_policy.Waiting.backoff then
            Int.min (Int.max (gap * 2) 1) max_backoff_ns
          else gap
        in
        wait_loop gap
    in
    wait_loop (Attribute.get t.wait_policy.Waiting.delay_ns)
  end

(* Bounded-retry acquisition: slices of timed waiting separated by
   exponential-backoff delays (Engine.Backoff), the package's standard
   recovery idiom for lock acquisition that must survive a delayed or
   dead lock holder. *)
let lock_retrying t ~backoff ~max_attempts ~slice_ns =
  if slice_ns <= 0 then invalid_arg "Lock_core.lock_retrying: slice_ns must be positive";
  Engine.Backoff.retry backoff ~max_attempts ~sleep:Ops.delay (fun () ->
      lock_timeout t ~deadline_ns:(Ops.now () + slice_ns))

let check_unlock ~name owner =
  let me = Ops.self () in
  match owner with
  | Some tid when tid = me -> ()
  | Some tid ->
    raise
      (Misuse
         (Printf.sprintf "thread %s unlocked lock %s held by %s" (Ops.thread_name me) name
            (Ops.thread_name tid)))
  | None ->
    raise
      (Misuse
         (Printf.sprintf "thread %s unlocked lock %s, which is not held"
            (Ops.thread_name me) name))

let unlock t =
  check_unlock ~name:t.lock_name t.owner;
  t.owner <- None;
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_release { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_unlock t.lock_stats;
  Ops.work_instrs t.costs.unlock_overhead_instrs;
  (* The owner's advice applies only to its own ownership span. *)
  if t.uses_advice then Ops.write t.advice_word 0;
  if t.costs.Lock_costs.unlock_queue_check || not (Lock_sched.is_empty t.queue) then begin
    guard_lock t;
    let successor = t.successor in
    t.successor <- None;
    match Lock_sched.release_next t.queue ~successor with
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

(* Reconfiguration (the paper's Psi), priced as Table 8 and only on a
   lock whose waiting policy is mutable. *)

let scratch_word t op =
  match t.scratch with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "Lock_core.%s: lock %s has a fixed waiting policy" op t.lock_name)

let configure_waiting t ?spin_count ?delay_ns ?backoff ?sleep ?timeout_ns () =
  Cost.charge ~scratch:(scratch_word t "configure_waiting")
    Lock_costs.configure_waiting_policy;
  let p = t.wait_policy in
  let update attr = function Some v -> Attribute.set attr v | None -> () in
  update p.Waiting.spin_count spin_count;
  update p.Waiting.delay_ns delay_ns;
  update p.Waiting.backoff backoff;
  update p.Waiting.sleep sleep;
  update p.Waiting.timeout_ns timeout_ns;
  Lock_stats.on_reconfigure t.lock_stats

let configure_scheduler t kind =
  Cost.charge ~scratch:(scratch_word t "configure_scheduler") Lock_costs.configure_scheduler;
  Lock_sched.set_kind t.queue kind;
  Lock_stats.on_reconfigure t.lock_stats

let acquire_ownership t =
  ignore (scratch_word t "acquire_ownership");
  Ops.work_instrs Lock_costs.acquisition_instrs;
  Attribute.acquire t.wait_policy.Waiting.spin_count

let release_ownership t =
  ignore (scratch_word t "release_ownership");
  Attribute.release t.wait_policy.Waiting.spin_count
