open Butterfly

(* Witness replay: turn a prediction into a machine-checked schedule.

   A prediction from {!Predict} claims that some legal reordering of
   the observed run manifests the bug. This module synthesizes a
   steering plan from the prediction's coordinates, re-executes the
   program under the controlled scheduler holding threads at the
   planned milestones, and checks whether the bug actually manifests:

   - a race manifests when both predicted accesses are pending at the
     same instant (performed but not yet executed — co-enabled by
     construction) {e and} the observed-trace race detector flags the
     word on the witness trace;
   - a deadlock or lost wakeup manifests when, after the plan's
     threads are lined up and released, the machine itself aborts with
     {!Sched.Deadlock}.

   A manifested run is then replayed from its recorded dispatch log on
   a fresh machine and must reproduce bit-for-bit; only then is the
   prediction Confirmed. Every step of the chain is checked by the
   machine, so the Confirmed set has no false positives by
   construction — steering never forces a transition the scheduler
   could not have taken on its own. *)

type key = Trace.key

(* {2 Milestones and plans} *)

(* A re-findable point in a thread's execution, counted in per-thread
   program order exactly as {!Predict} counts it. *)
type milestone =
  | M_access of { m_tid : int; m_word : key; m_nth : int }
  | M_request of { m_tid : int; m_lock : key; m_nth : int }
  | M_block of { m_tid : int; m_nth : int }

let milestone_tid = function
  | M_access { m_tid; _ } | M_request { m_tid; _ } | M_block { m_tid; _ } -> m_tid

let nth_of = function
  | M_access { m_nth; _ } | M_request { m_nth; _ } | M_block { m_nth; _ } -> m_nth

type plan = {
  p_holds : (milestone * key list) list;
      (* hold the thread when its milestone fires; the lock keys are
         what the thread must hold there for the plan to be on track *)
  p_waits : (milestone * key list) list;  (* must fire, no hold *)
  p_chase : milestone option;
      (* once every hold/wait is satisfied: release the first hold's
         thread and declare manifestation when this milestone fires
         (the other held thread still pending) *)
  p_expect_deadlock : bool;
      (* manifestation = the machine aborts with [Sched.Deadlock]
         after all holds/waits are satisfied and released *)
}

(* {2 Plan synthesis} *)

let access_milestone (s : Predict.site) word =
  M_access { m_tid = s.Predict.s_tid; m_word = word; m_nth = s.Predict.s_nth }

(* Race: hold the first site's thread out of the way, park the second
   site's thread at its pending access, then drive the first thread to
   its own access — both pending at once is the manifested race.

   The hold point for the first thread is its access itself unless it
   there holds a lock the second thread still needs on its path to the
   second access (the held lock would wall the path off); in that case
   hold at the request of the first such lock, before it is taken. *)
let plan_of_race trace (r : Predict.race_prediction) =
  let t1 = r.Predict.r_first.Predict.s_tid in
  let t2 = r.Predict.r_second.Predict.s_tid in
  let t2_path_locks = Hashtbl.create 8 in
  let t1_req_counts = Hashtbl.create 8 in
  Trace.iteri_side
    (fun idx entry ->
      match entry with
      | Trace.Annot { annot_tid; annotation = Ops.A_lock_request { lock; _ }; _ } ->
        let k = Trace.key lock in
        if annot_tid = t2 && idx < r.Predict.r_second.Predict.s_idx then
          Hashtbl.replace t2_path_locks k ();
        if annot_tid = t1 && idx < r.Predict.r_first.Predict.s_idx then
          Hashtbl.replace t1_req_counts k
            (1 + (match Hashtbl.find_opt t1_req_counts k with Some n -> n | None -> 0))
      | _ -> ())
    trace;
  let e1 = access_milestone r.Predict.r_first r.Predict.r_word in
  let e2 = access_milestone r.Predict.r_second r.Predict.r_word in
  let acq_order = List.rev r.Predict.r_first.Predict.s_locks in
  match List.find_opt (fun (k, _) -> Hashtbl.mem t2_path_locks k) acq_order with
  | None ->
    { p_holds = [ (e1, []); (e2, []) ]; p_waits = []; p_chase = None;
      p_expect_deadlock = false }
  | Some (h, _) ->
    let nth =
      match Hashtbl.find_opt t1_req_counts h with Some n -> n | None -> 1
    in
    { p_holds = [ (M_request { m_tid = t1; m_lock = h; m_nth = nth }, []); (e2, []) ];
      p_waits = []; p_chase = Some e1; p_expect_deadlock = false }

(* Deadlock: park both threads at their crossing lock requests — each
   then provably holds its half of the cycle and has not yet probed
   the other half — and release them into each other. *)
let plan_of_deadlock (d : Predict.deadlock_prediction) =
  let hold (q : Predict.req_site) =
    ( M_request { m_tid = q.Predict.q_tid; m_lock = q.Predict.q_lock;
                  m_nth = q.Predict.q_nth },
      List.map fst q.Predict.q_holding )
  in
  { p_holds = [ hold d.Predict.d_a; hold d.Predict.d_b ]; p_waits = [];
    p_chase = None; p_expect_deadlock = true }

(* Lost wakeup: park the waker at its request of the victim's lock
   (before probing it), let the victim take the lock and go to sleep
   holding it, then release the waker — it blocks on the lock, the
   wakeup it would have sent is never sent, and the machine deadlocks. *)
let plan_of_lost_wakeup (lw : Predict.lost_wakeup_prediction) =
  { p_holds =
      [ ( M_request { m_tid = lw.Predict.lw_waker; m_lock = lw.Predict.lw_lock;
                      m_nth = lw.Predict.lw_waker_req_nth }, [] ) ];
    p_waits =
      [ ( M_block { m_tid = lw.Predict.lw_victim;
                    m_nth = lw.Predict.lw_victim_block_nth },
          [ lw.Predict.lw_lock ] ) ];
    p_chase = None; p_expect_deadlock = true }

(* Swap-window lost waiter: the finding is on the observed schedule
   itself, so no steering is needed — wait for the victim's block
   point to confirm it really parks inside the lock call, then let the
   run finish on its own; manifestation is the machine's deadlock
   abort (the unkicked sleeper is never woken, so whoever joins or
   needs it wedges the machine). *)
let plan_of_swap_lost (sw : Predict.swap_prediction) =
  { p_holds = [];
    p_waits =
      [ ( M_block { m_tid = sw.Predict.sw_victim;
                    m_nth = sw.Predict.sw_victim_block_nth }, [] ) ];
    p_chase = None; p_expect_deadlock = true }

(* Swap-window double grant: likewise observed, not reordered — replay
   the run unsteered past the second grantee's request and let the
   independent overlapping-ownership scan over the witness trace be
   the manifestation check. *)
let plan_of_swap_double (sw : Predict.swap_prediction) =
  { p_holds = [];
    p_waits =
      [ ( M_request { m_tid = sw.Predict.sw_victim;
                      m_lock = sw.Predict.sw_lock;
                      m_nth = sw.Predict.sw_victim_req_nth }, [] ) ];
    p_chase = None; p_expect_deadlock = false }

let synthesize trace = function
  | Predict.Race r -> plan_of_race trace r
  | Predict.Deadlock d -> plan_of_deadlock d
  | Predict.Lost_wakeup lw -> plan_of_lost_wakeup lw
  | Predict.Swap_window sw -> (
    match sw.Predict.sw_fault with
    | Predict.Sw_lost_waiter -> plan_of_swap_lost sw
    | Predict.Sw_double_grant -> plan_of_swap_double sw)

(* {2 The steering engine} *)

type slot = { s_milestone : milestone; s_need : key list; s_hold : bool;
              mutable s_done : bool }

type monitor = {
  plan : plan;
  slots : slot list;
  lock_held : key Trace.Held.t;  (* tracked ownership, by annot *)
  acc : (int * key, int) Hashtbl.t;
  req : (int * key, int) Hashtbl.t;
  blk : (int, int) Hashtbl.t;
  mutable held_tids : int list;  (* threads the chooser must not pick *)
  mutable primed : bool;
  mutable chase_armed : bool;
  mutable manifested : bool;
  mutable failure : string option;
}

let make_monitor plan =
  {
    plan;
    slots =
      List.map (fun (m, need) ->
          { s_milestone = m; s_need = need; s_hold = true; s_done = false })
        plan.p_holds
      @ List.map (fun (m, need) ->
            { s_milestone = m; s_need = need; s_hold = false; s_done = false })
          plan.p_waits;
    lock_held = Trace.Held.create Fun.id;
    acc = Hashtbl.create 64;
    req = Hashtbl.create 32;
    blk = Hashtbl.create 16;
    held_tids = [];
    primed = false;
    chase_armed = false;
    manifested = false;
    failure = None;
  }

let fail mon msg =
  if mon.failure = None && not mon.manifested then mon.failure <- Some msg;
  mon.held_tids <- []

let release mon tid = mon.held_tids <- List.filter (fun t -> t <> tid) mon.held_tids

let count_of mon = function
  | M_access { m_tid; m_word; _ } -> (
    match Hashtbl.find_opt mon.acc (m_tid, m_word) with Some n -> n | None -> 0)
  | M_request { m_tid; m_lock; _ } -> (
    match Hashtbl.find_opt mon.req (m_tid, m_lock) with Some n -> n | None -> 0)
  | M_block { m_tid; _ } -> (
    match Hashtbl.find_opt mon.blk m_tid with Some n -> n | None -> 0)

let check_primed mon =
  if (not mon.primed) && mon.failure = None
     && List.for_all (fun s -> s.s_done) mon.slots
  then begin
    mon.primed <- true;
    match mon.plan.p_chase with
    | Some chase ->
      (match mon.plan.p_holds with
      | (m, _) :: _ -> release mon (milestone_tid m)
      | [] -> ());
      if count_of mon chase >= nth_of chase then
        fail mon "target site already executed before steering lined up"
      else mon.chase_armed <- true
    | None ->
      if mon.plan.p_expect_deadlock then
        (* release everyone into the collision; manifestation is the
           machine's own deadlock abort *)
        mon.held_tids <- []
      else begin
        mon.manifested <- true;
        mon.held_tids <- []
      end
  end

let fire mon m =
  if mon.failure = None && not mon.manifested then
    if mon.plan.p_chase = Some m then begin
      if mon.chase_armed then begin
        mon.manifested <- true;
        mon.held_tids <- []
      end
      else fail mon "target site reached before steering lined up"
    end
    else
      match
        List.find_opt (fun s -> (not s.s_done) && s.s_milestone = m) mon.slots
      with
      | None -> ()
      | Some slot ->
        let tid = milestone_tid m in
        let holding = Trace.Held.get mon.lock_held tid in
        if List.for_all (fun k -> List.mem k holding) slot.s_need then begin
          slot.s_done <- true;
          if slot.s_hold then mon.held_tids <- tid :: mon.held_tids;
          check_primed mon
        end
        else fail mon "milestone reached without the locks the plan requires"

let install_hooks sim mon =
  let milestones =
    List.map (fun s -> s.s_milestone) mon.slots
    @ (match mon.plan.p_chase with Some c -> [ c ] | None -> [])
  in
  let fire_matching pred n =
    List.iter (fun m -> if pred m && nth_of m = n then fire mon m) milestones
  in
  Sched.add_access_hook sim (fun a ->
      let k = Trace.key a.Sched.access_addr in
      let cell = (a.Sched.access_tid, k) in
      let n = 1 + (match Hashtbl.find_opt mon.acc cell with Some n -> n | None -> 0) in
      Hashtbl.replace mon.acc cell n;
      fire_matching
        (function
          | M_access { m_tid; m_word; _ } ->
            m_tid = a.Sched.access_tid && m_word = k
          | _ -> false)
        n);
  Sched.add_annot_hook sim (fun an ->
      match an.Sched.annotation with
      | Ops.A_lock_request { lock; _ } ->
        let k = Trace.key lock in
        let cell = (an.Sched.annot_tid, k) in
        let n =
          1 + (match Hashtbl.find_opt mon.req cell with Some n -> n | None -> 0)
        in
        Hashtbl.replace mon.req cell n;
        fire_matching
          (function
            | M_request { m_tid; m_lock; _ } ->
              m_tid = an.Sched.annot_tid && m_lock = k
            | _ -> false)
          n
      | Ops.A_lock_acquire { lock; _ } ->
        Trace.Held.push mon.lock_held an.Sched.annot_tid (Trace.key lock)
      | Ops.A_lock_release { lock; _ } ->
        ignore (Trace.Held.pop mon.lock_held an.Sched.annot_tid (Trace.key lock) : key option)
      | Ops.A_sync_word _ | Ops.A_relaxed_word _ | Ops.A_adaptation _ -> ());
  Sched.add_event_hook sim (fun ev ->
      match ev.Sched.kind with
      | Sched.Ev_block | Sched.Ev_token_use ->
        let n =
          1 + (match Hashtbl.find_opt mon.blk ev.Sched.tid with Some n -> n | None -> 0)
        in
        Hashtbl.replace mon.blk ev.Sched.tid n;
        fire_matching
          (function M_block { m_tid; _ } -> m_tid = ev.Sched.tid | _ -> false)
          n
      | _ -> ())

(* Among the legal dispatch candidates, pick the earliest non-held one
   (virtual time, then tid — the default policy's order). If every
   candidate is a thread the plan holds, steering is stuck: give up
   and release everything so the run can finish on its own. *)
let chooser mon (choices : Sched.choice array) =
  if mon.held_tids = [] then -1
  else begin
    let best = ref None in
    Array.iter
      (fun (c : Sched.choice) ->
        if not (List.mem c.Sched.choice_tid mon.held_tids) then
          match !best with
          | Some (bk, bt)
            when bk < c.Sched.choice_key
                 || (bk = c.Sched.choice_key && bt < c.Sched.choice_tid) -> ()
          | _ -> best := Some (c.Sched.choice_key, c.Sched.choice_tid))
      choices;
    match !best with
    | Some (_, tid) -> tid
    | None ->
      fail mon "every dispatchable thread is held by the plan";
      -1
  end

(* {2 Running and replaying} *)

type outcome =
  | Completed
  | Deadlocked of string
  | Crashed of string
  | Limit  (** the [max_events] safety valve fired *)

type status = Confirmed | Unconfirmed

let status_name = function Confirmed -> "confirmed" | Unconfirmed -> "unconfirmed"

type result = {
  w_status : status;
  w_outcome : outcome;  (** how the witness run ended *)
  w_manifested : bool;  (** the plan's manifestation criterion held *)
  w_failure : string option;  (** why steering gave up, if it did *)
  w_schedule : int list;  (** recorded dispatch log of the witness run *)
  w_replay_ok : bool;  (** the log replayed bit-for-bit on a fresh machine *)
}

(* Witness runs take schedules the default policy never would, so give
   them headroom over the configured event budget. *)
let witness_cfg cfg =
  { cfg with Config.max_events = max cfg.Config.max_events 4_000_000 }

type run_info = {
  ri_outcome : outcome;
  ri_schedule : int list;
  ri_trace : Trace.t;
  ri_names : int -> string;
  ri_time : int;
  ri_diverged : bool;
}

let capture_outcome sim program =
  match Sched.run sim program with
  | () -> Completed
  | exception Sched.Deadlock m -> Deadlocked m
  | exception Sched.Event_limit_exceeded -> Limit
  | exception Sched.Thread_crash (thread, _) ->
    Crashed (Printf.sprintf "thread %s crashed" thread)
  | exception e -> Crashed (Printexc.to_string e)

let steered_run cfg program mon =
  let sim = Sched.create (witness_cfg cfg) in
  let trace = Trace.attach sim in
  Sched.set_record_schedule sim true;
  install_hooks sim mon;
  Sched.set_dispatch_chooser sim (Some (chooser mon));
  let outcome = capture_outcome sim program in
  {
    ri_outcome = outcome;
    ri_schedule = Sched.recorded_schedule sim;
    ri_trace = trace;
    ri_names = Trace.thread_names sim;
    ri_time = Sched.machine_time sim;
    ri_diverged = Sched.control_diverged sim;
  }

let replay cfg program schedule =
  let sim = Sched.create (witness_cfg cfg) in
  let trace = Trace.attach sim in
  Sched.set_record_schedule sim true;
  Sched.set_schedule_control sim schedule;
  let outcome = capture_outcome sim program in
  (outcome, trace, Sched.machine_time sim, Sched.replay_faithful sim schedule)

let replay_matches cfg program info =
  let outcome, trace, time, faithful = replay cfg program info.ri_schedule in
  faithful && outcome = info.ri_outcome && time = info.ri_time
  && Trace.length trace = Trace.length info.ri_trace

(* The belt-and-suspenders check behind a race Confirmed: the
   manifested witness trace must also be flagged by the independent
   observed-trace race detector on the same word. *)
let detector_flags_race info (r : Predict.race_prediction) =
  let needle = Printf.sprintf "word %s:" (Trace.key_name r.Predict.r_word) in
  List.exists
    (fun (d : Diag.t) -> Engine.Text.contains d.Diag.message needle)
    (Race.run ~names:info.ri_names info.ri_trace)

(* The independent check behind a double-grant Confirmed: the witness
   trace itself must show two unreleased acquires of the word at once. *)
let trace_shows_double_hold info (sw : Predict.swap_prediction) =
  let holding = ref 0 and overlap = ref false in
  Trace.iteri_side
    (fun _ -> function
      | Trace.Annot { annotation = Ops.A_lock_acquire { lock; _ }; _ }
        when Trace.key lock = sw.Predict.sw_lock ->
        incr holding;
        if !holding > 1 then overlap := true
      | Trace.Annot { annotation = Ops.A_lock_release { lock; _ }; _ }
        when Trace.key lock = sw.Predict.sw_lock ->
        decr holding
      | _ -> ())
    info.ri_trace;
  !overlap

let run_plan cfg program prediction plan =
  let mon = make_monitor plan in
  let info = steered_run cfg program mon in
  let manifested =
    mon.failure = None
    &&
    if plan.p_expect_deadlock then
      mon.primed && (match info.ri_outcome with Deadlocked _ -> true | _ -> false)
    else mon.manifested
  in
  let checked =
    manifested
    &&
    match prediction with
    | Predict.Race r -> detector_flags_race info r
    | Predict.Deadlock _ | Predict.Lost_wakeup _ -> true
    | Predict.Swap_window sw -> (
      match sw.Predict.sw_fault with
      | Predict.Sw_lost_waiter -> true
      | Predict.Sw_double_grant -> trace_shows_double_hold info sw)
  in
  let replay_ok = checked && replay_matches cfg program info in
  {
    w_status = (if checked && replay_ok then Confirmed else Unconfirmed);
    w_outcome = info.ri_outcome;
    w_manifested = manifested;
    w_failure = mon.failure;
    w_schedule = info.ri_schedule;
    w_replay_ok = replay_ok;
  }

let confirm cfg program trace prediction =
  run_plan cfg program prediction (synthesize trace prediction)
