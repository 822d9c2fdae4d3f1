open Butterfly

(* The predictive pass: drives the weak causality engine over a trace
   and reports races, lock-order deadlocks and lost wakeups that are
   reachable in a *reordering* of the observed run — including ones
   the observed-trace detectors cannot see because the schedule that
   was taken happened to order the conflicting operations. Every
   prediction carries the concrete sites (thread, time, per-thread
   occurrence index) a witness schedule is synthesized from. *)

type key = Trace.key

(* One side of a predicted race, with enough coordinates to re-find
   the access in a fresh run of the same program: [s_nth] is the
   1-based count of this thread's accesses to this word. *)
type site = {
  s_tid : int;
  s_time : int;
  s_idx : int;  (* position in the analyzed trace *)
  s_nth : int;
  s_write : bool;
  s_locks : (key * string) list;  (* locks held, innermost first *)
}

type race_prediction = {
  r_word : key;
  r_first : site;  (* in trace order *)
  r_second : site;
  mutable r_count : int;
}

(* A lock request, with the requester's weak clock: one edge end of a
   predicted deadlock or the waker side of a predicted lost wakeup.
   [q_nth] counts this thread's requests of this lock. *)
type req_site = {
  q_tid : int;
  q_time : int;
  q_idx : int;
  q_nth : int;
  q_lock : key;
  q_lock_name : string;
  q_comp : int;
  q_snap : int array;
  q_holding : (key * string) list;
}

type deadlock_prediction = { d_a : req_site; d_b : req_site }
(* [d_a] (earlier in the trace) requests lock L while holding H;
   [d_b] requests H while holding L. *)

type lost_wakeup_prediction = {
  lw_lock : key;
  lw_lock_name : string;
  lw_victim : int;
  lw_victim_time : int;
  lw_victim_block_nth : int;  (* 1-based count of the victim's block points *)
  lw_waker : int;
  lw_waker_time : int;
  lw_waker_req_nth : int;  (* nth request of [lw_lock] by the waker *)
}

(* The swap-window rules watch implementation hot-swaps (the
   [A_adaptation] windows a switch lock emits around its
   freeze-kick-drain protocol) for the two protocol-fatal outcomes: a
   sleeping waiter still parked when the swap commits (the new
   implementation never learns of it — it sleeps forever), and two
   threads holding the lock at once after a grant raced the window. *)
type swap_fault = Sw_lost_waiter | Sw_double_grant

type swap_prediction = {
  sw_fault : swap_fault;
  sw_obj : string;  (* the adaptation object's name (= the lock's) *)
  sw_lock : key;
  sw_victim : int;  (* the lost sleeper, or the second grantee *)
  sw_victim_time : int;  (* when it blocked / when it acquired *)
  sw_victim_block_nth : int;  (* block-point count (lost waiter) *)
  sw_victim_req_nth : int;  (* nth request of the lock by the victim *)
  sw_other : int;  (* the committing swapper, or the first holder *)
  sw_time : int;  (* the commit / the overlapping acquire *)
  sw_label : string;  (* the swap's from->to label, when known *)
}

type prediction =
  | Race of race_prediction
  | Deadlock of deadlock_prediction
  | Lost_wakeup of lost_wakeup_prediction
  | Swap_window of swap_prediction

let rule = function
  | Race _ -> "predicted-race"
  | Deadlock _ -> "predicted-deadlock"
  | Lost_wakeup _ -> "predicted-lost-wakeup"
  | Swap_window { sw_fault = Sw_lost_waiter; _ } -> "predicted-swap-lost-waiter"
  | Swap_window { sw_fault = Sw_double_grant; _ } -> "predicted-swap-double-grant"

let locks_str = function
  | [] -> "no locks"
  | locks -> String.concat ", " (List.rev_map snd locks)

let describe ~names = function
  | Race r ->
    let side s =
      Printf.sprintf "%s by %s at %d ns holding {%s}"
        (if s.s_write then "write" else "read")
        (names s.s_tid) s.s_time
        (String.concat ", " (List.rev_map snd s.s_locks))
    in
    Printf.sprintf
      "word %s: %s is reorderable against %s (no common lock, weakly unordered)%s"
      (Trace.key_name r.r_word) (side r.r_first) (side r.r_second)
      (if r.r_count > 1 then Printf.sprintf "; %d occurrences of this site pair" r.r_count
       else "")
  | Deadlock d ->
    Printf.sprintf
      "%s requests %s at %d ns holding %s while %s requests %s at %d ns holding %s; \
       the requests are weakly unordered and gate-free, so a reordering deadlocks"
      (names d.d_a.q_tid) d.d_a.q_lock_name d.d_a.q_time (locks_str d.d_a.q_holding)
      (names d.d_b.q_tid) d.d_b.q_lock_name d.d_b.q_time (locks_str d.d_b.q_holding)
  | Lost_wakeup lw ->
    Printf.sprintf
      "%s blocks at %d ns holding %s while its waker %s needs %s (requested at %d \
       ns); reordered, the sleeper takes the lock first and the wakeup is never sent"
      (names lw.lw_victim) lw.lw_victim_time lw.lw_lock_name (names lw.lw_waker)
      lw.lw_lock_name lw.lw_waker_time
  | Swap_window sw -> (
    match sw.sw_fault with
    | Sw_lost_waiter ->
      Printf.sprintf
        "switch lock %s: sleeping waiter %s (blocked at %d ns) is still parked when \
         the swap %s commits at %d ns by %s — no wakeup reached it inside the window, \
         so the new implementation never learns of it"
        sw.sw_obj (names sw.sw_victim) sw.sw_victim_time sw.sw_label sw.sw_time
        (names sw.sw_other)
    | Sw_double_grant ->
      Printf.sprintf
        "switch lock %s: %s acquires at %d ns while %s still holds — a grant escaped \
         the swap window and the lock is held twice"
        sw.sw_obj (names sw.sw_victim) sw.sw_time (names sw.sw_other))

(* A prior access with its weak epoch, for the ordering test. *)
type wprior = { w_site : site; w_comp : int }

type word_state = {
  mutable last_write : wprior option;
  reads : (int, wprior) Hashtbl.t;
}

type acquire_rec = { a_comp : int; a_snap : int array }

type state = {
  cau : Causality.t;
  exempt : Trace.exempt;
  held : (key * string) Trace.Held.t;
  words : (key, word_state) Hashtbl.t;
  access_counts : (int * key, int) Hashtbl.t;
  request_counts : (int * key, int) Hashtbl.t;
  block_counts : (int, int) Hashtbl.t;
  (* race findings, deduped like the observed detector *)
  race_tbl : (key * (int * key list) * (int * key list), race_prediction) Hashtbl.t;
  mutable races : race_prediction list;  (* newest first *)
  (* deadlock edges: (held, requested) -> request sites, one per thread *)
  edges : (key * key, req_site list) Hashtbl.t;
  mutable edge_order : (key * key) list;  (* newest first *)
  (* lost-wakeup ingredients *)
  requests : (int * key, req_site list) Hashtbl.t;  (* newest first *)
  acquires : (int * key, acquire_rec) Hashtbl.t;  (* latest acquire *)
  last_block : (int, (key * string) list * int) Hashtbl.t;  (* held set, block nth *)
  pending_tokens : (int, (int * int) Queue.t) Hashtbl.t;  (* victim -> (waker, send idx) *)
  lw_tbl : (int * int * key, unit) Hashtbl.t;
  mutable lost_wakeups : lost_wakeup_prediction list;  (* newest first *)
  (* swap-window ingredients *)
  waiting_on : (int, key * string) Hashtbl.t;  (* open lock request *)
  asleep : (int, int * int) Hashtbl.t;  (* tid -> block nth, block time *)
  impl_objs : (string, unit) Hashtbl.t;  (* names seen in lock-impl swaps *)
  holders : (key, (int * int) list) Hashtbl.t;  (* owners, newest first *)
  sw_tbl : (int * string * swap_fault, unit) Hashtbl.t;
  mutable swaps : swap_prediction list;  (* newest first *)
}

let held st tid = Trace.Held.get st.held tid

let bump tbl k =
  let n = (match Hashtbl.find_opt tbl k with Some n -> n | None -> 0) + 1 in
  Hashtbl.replace tbl k n;
  n

let lock_keys locks = List.map fst locks
let disjoint a b = not (List.exists (fun k -> List.mem k b) a)

let word_state st k =
  match Hashtbl.find_opt st.words k with
  | Some w -> w
  | None ->
    let w = { last_write = None; reads = Hashtbl.create 4 } in
    Hashtbl.replace st.words k w;
    w

let note_race st word ~first ~second =
  let canon s = (s.s_tid, List.sort compare (lock_keys s.s_locks)) in
  let sa, sb = (canon first, canon second) in
  let fkey = if fst sa <= fst sb then (word, sa, sb) else (word, sb, sa) in
  match Hashtbl.find_opt st.race_tbl fkey with
  | Some r -> r.r_count <- r.r_count + 1
  | None ->
    let r = { r_word = word; r_first = first; r_second = second; r_count = 1 } in
    Hashtbl.replace st.race_tbl fkey r;
    st.races <- r :: st.races

let check_pair st word ~prior ~cur =
  if prior.w_site.s_tid <> cur.w_site.s_tid then begin
    let ordered =
      Causality.ordered st.cau ~tid:prior.w_site.s_tid ~comp:prior.w_comp
        ~before:cur.w_site.s_tid
    in
    if
      (not ordered)
      && disjoint (lock_keys prior.w_site.s_locks) (lock_keys cur.w_site.s_locks)
    then note_race st word ~first:prior.w_site ~second:cur.w_site
  end

let on_access st idx (a : Sched.access) =
  let k = Trace.key a.access_addr in
  let tid = a.access_tid in
  let write =
    match a.access_kind with
    | Memory.Write_access | Memory.Atomic_access -> true
    | Memory.Read_access -> false
  in
  (* Feed the causality engine first: the access must absorb incoming
     conflict edges before its epoch is read. Exempt words still flow
     through — conflict edges over primitive internals (a barrier's
     counter, a semaphore's permits) are exactly what keeps correctly
     synchronized code weakly ordered. *)
  Causality.on_access st.cau ~tid ~word:k ~write;
  if not (Trace.is_exempt st.exempt k) then begin
    let nth = bump st.access_counts (tid, k) in
    let cur =
      {
        w_site =
          { s_tid = tid; s_time = a.access_time; s_idx = idx; s_nth = nth; s_write = write;
            s_locks = held st tid };
        w_comp = Causality.epoch st.cau tid;
      }
    in
    let word = word_state st k in
    (match a.access_kind with
    | Memory.Read_access ->
      (match word.last_write with
      | Some w -> check_pair st k ~prior:w ~cur
      | None -> ());
      Hashtbl.replace word.reads tid cur
    | Memory.Write_access ->
      (match word.last_write with
      | Some w -> check_pair st k ~prior:w ~cur
      | None -> ());
      Hashtbl.iter (fun _ r -> check_pair st k ~prior:r ~cur) word.reads;
      Hashtbl.reset word.reads;
      word.last_write <- Some cur
    | Memory.Atomic_access -> ())
  end

let add_edge st edge site =
  let existing = match Hashtbl.find_opt st.edges edge with Some l -> l | None -> [] in
  if not (List.exists (fun q -> q.q_tid = site.q_tid) existing) then begin
    if existing = [] then st.edge_order <- edge :: st.edge_order;
    Hashtbl.replace st.edges edge (site :: existing)
  end

let on_request st idx (an : Sched.annot) lock lock_name =
  let tid = an.annot_tid in
  let k = Trace.key lock in
  let nth = bump st.request_counts (tid, k) in
  let site =
    {
      q_tid = tid;
      q_time = an.annot_time;
      q_idx = idx;
      q_nth = nth;
      q_lock = k;
      q_lock_name = lock_name;
      q_comp = Causality.epoch st.cau tid;
      q_snap = Causality.snapshot st.cau tid;
      q_holding = held st tid;
    }
  in
  Hashtbl.replace st.requests (tid, k)
    (site :: (match Hashtbl.find_opt st.requests (tid, k) with Some l -> l | None -> []));
  List.iter (fun (h, _) -> if h <> k then add_edge st (h, k) site) site.q_holding

(* The lost-wakeup rule: thread V blocked (or absorbed a wake token)
   at a point where it held lock L, and the thread W that woke it had
   itself requested L, in its own program order, before sending the
   wake. If V's acquire of L and W's request of L are weakly unordered
   and share no other held lock, the reordering where V takes L first
   leaves W stuck behind L and the wakeup is never sent: deadlock. *)
let check_lost_wakeup st ~victim ~victim_held ~victim_block_nth ~waker ~send_idx
    ~time =
  List.iter
    (fun (l, lname) ->
      if not (Hashtbl.mem st.lw_tbl (victim, waker, l)) then begin
        let wreqs =
          match Hashtbl.find_opt st.requests (waker, l) with Some rs -> rs | None -> []
        in
        (* newest first: the last request before the send *)
        match List.find_opt (fun q -> q.q_idx < send_idx) wreqs with
        | None -> ()
        | Some wreq -> (
          match Hashtbl.find_opt st.acquires (victim, l) with
          | None -> ()
          | Some vacq ->
            let unordered =
              (not (Causality.ordered_snapshot ~tid:victim ~comp:vacq.a_comp wreq.q_snap))
              && not (Causality.ordered_snapshot ~tid:waker ~comp:wreq.q_comp vacq.a_snap)
            in
            let gate_free =
              disjoint
                (List.filter (fun k -> k <> l) (lock_keys victim_held))
                (List.filter (fun k -> k <> l) (lock_keys wreq.q_holding))
            in
            if unordered && gate_free then begin
              Hashtbl.replace st.lw_tbl (victim, waker, l) ();
              st.lost_wakeups <-
                {
                  lw_lock = l;
                  lw_lock_name = lname;
                  lw_victim = victim;
                  lw_victim_time = time;
                  lw_victim_block_nth = victim_block_nth;
                  lw_waker = waker;
                  lw_waker_time = wreq.q_time;
                  lw_waker_req_nth = wreq.q_nth;
                }
                :: st.lost_wakeups
            end)
      end)
    victim_held

let on_event st idx (ev : Sched.event) =
  (match ev.kind with
  | Sched.Ev_block ->
    let nth = bump st.block_counts ev.tid in
    Hashtbl.replace st.last_block ev.tid (held st ev.tid, nth);
    Hashtbl.replace st.asleep ev.tid (nth, ev.time)
  | Sched.Ev_token_use ->
    Hashtbl.remove st.asleep ev.tid;
    let nth = bump st.block_counts ev.tid in
    let waker_and_idx =
      match Hashtbl.find_opt st.pending_tokens ev.tid with
      | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
      | Some _ | None -> if ev.other >= 0 then Some (ev.other, idx) else None
    in
    (match waker_and_idx with
    | Some (waker, send_idx) when waker >= 0 ->
      check_lost_wakeup st ~victim:ev.tid ~victim_held:(held st ev.tid)
        ~victim_block_nth:nth ~waker ~send_idx ~time:ev.time
    | _ -> ())
  | Sched.Ev_token ->
    if ev.other >= 0 then begin
      let q =
        match Hashtbl.find_opt st.pending_tokens ev.tid with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace st.pending_tokens ev.tid q;
          q
      in
      Queue.add (ev.other, idx) q
    end
  | Sched.Ev_wakeup ->
    Hashtbl.remove st.asleep ev.tid;
    if ev.other >= 0 then (
      match Hashtbl.find_opt st.last_block ev.tid with
      | Some (victim_held, nth) when victim_held <> [] ->
        check_lost_wakeup st ~victim:ev.tid ~victim_held ~victim_block_nth:nth
          ~waker:ev.other ~send_idx:idx ~time:ev.time
      | Some _ | None -> ())
  | _ -> ());
  (* The causality engine's hard edges run after the bookkeeping so
     the unordered tests above see the pre-edge clocks (the wakeup
     edge itself must not order the pair it is evidence for). *)
  Causality.on_event st.cau ev

(* {2 The swap-window rules}

   An implementation hot-swap announces itself on the trace as
   [A_adaptation] annotations with kind ["lock-impl"]: "swap-begin:",
   then "swap-commit:" or "swap-rollback:". The quiescence protocol's
   contract is that by commit time every registered waiter has been
   kicked awake and re-armed — so a thread still asleep inside an open
   request of the swapped lock at the commit is a waiter the committed
   implementation has no record of, and nothing will ever wake it.
   Dually, an acquire of a swap-managed lock while another thread's
   acquire is still unreleased is a grant that escaped the window. *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let note_swap st sw =
  let k = (sw.sw_victim, sw.sw_obj, sw.sw_fault) in
  if not (Hashtbl.mem st.sw_tbl k) then begin
    Hashtbl.replace st.sw_tbl k ();
    st.swaps <- sw :: st.swaps
  end

let on_swap_commit st (an : Sched.annot) ~obj_name ~label =
  let victims = ref [] in
  Hashtbl.iter
    (fun tid (k, lname) ->
      if lname = obj_name && tid <> an.annot_tid then
        match Hashtbl.find_opt st.asleep tid with
        | Some (nth, btime) -> victims := (tid, k, nth, btime) :: !victims
        | None -> ())
    st.waiting_on;
  List.iter
    (fun (tid, k, nth, btime) ->
      note_swap st
        {
          sw_fault = Sw_lost_waiter;
          sw_obj = obj_name;
          sw_lock = k;
          sw_victim = tid;
          sw_victim_time = btime;
          sw_victim_block_nth = nth;
          sw_victim_req_nth =
            (match Hashtbl.find_opt st.request_counts (tid, k) with
            | Some n -> n
            | None -> 1);
          sw_other = an.annot_tid;
          sw_time = an.annot_time;
          sw_label = label;
        })
    (List.sort compare !victims)

let on_impl_acquire st (an : Sched.annot) k lock_name =
  let prior = match Hashtbl.find_opt st.holders k with Some l -> l | None -> [] in
  (if Hashtbl.mem st.impl_objs lock_name then
     match prior with
     | (other, _) :: _ when other <> an.annot_tid ->
       note_swap st
         {
           sw_fault = Sw_double_grant;
           sw_obj = lock_name;
           sw_lock = k;
           sw_victim = an.annot_tid;
           sw_victim_time = an.annot_time;
           sw_victim_block_nth = 0;
           sw_victim_req_nth =
             (match Hashtbl.find_opt st.request_counts (an.annot_tid, k) with
             | Some n -> n
             | None -> 1);
           sw_other = other;
           sw_time = an.annot_time;
           sw_label = "";
         }
     | _ -> ());
  Hashtbl.replace st.holders k ((an.annot_tid, an.annot_time) :: prior)

let on_annot st idx (an : Sched.annot) =
  match an.annotation with
  | Ops.A_lock_request { lock; lock_name } ->
    Hashtbl.replace st.waiting_on an.annot_tid (Trace.key lock, lock_name);
    on_request st idx an lock lock_name
  | Ops.A_lock_acquire { lock; lock_name; _ } ->
    let tid = an.annot_tid in
    let k = Trace.key lock in
    Hashtbl.remove st.waiting_on tid;
    on_impl_acquire st an k lock_name;
    Causality.on_acquire st.cau ~tid ~lock:k;
    Hashtbl.replace st.acquires (tid, k)
      { a_comp = Causality.epoch st.cau tid; a_snap = Causality.snapshot st.cau tid };
    Trace.Held.push st.held tid (k, lock_name)
  | Ops.A_lock_release { lock; _ } ->
    let tid = an.annot_tid in
    let k = Trace.key lock in
    (* A thread releasing a lock is certainly not parked inside an
       earlier [lock] call: drop any stale open request (a timed-out
       wait leaves one behind — there is no withdrawal annotation). *)
    Hashtbl.remove st.waiting_on tid;
    (match Hashtbl.find_opt st.holders k with
    | Some l -> Hashtbl.replace st.holders k (List.filter (fun (t, _) -> t <> tid) l)
    | None -> ());
    ignore (Trace.Held.pop st.held tid k : (key * string) option);
    Causality.on_release st.cau ~tid ~lock:k
  | Ops.A_adaptation { obj_name; kind; label } ->
    if kind = "lock-impl" then begin
      Hashtbl.replace st.impl_objs obj_name ();
      if has_prefix "swap-commit:" label then
        on_swap_commit st an ~obj_name
          ~label:(String.sub label 12 (String.length label - 12))
    end
  | Ops.A_sync_word _ | Ops.A_relaxed_word _ -> ()

(* Pair up reverse edges into deadlock predictions: (H, L) by thread A
   and (L, H) by thread B, weakly unordered requests, and no gate lock
   held at both requests (a common lock held around both nestings
   makes the interleaving unreachable — the classic false positive of
   the observed-trace cycle detector). *)
let deadlocks st =
  let reported = Hashtbl.create 8 in
  List.concat_map
    (fun (h, l) ->
      let pair_key = if h <= l then (h, l) else (l, h) in
      if Hashtbl.mem reported pair_key then []
      else
        let fwd = match Hashtbl.find_opt st.edges (h, l) with Some x -> x | None -> [] in
        let rev = match Hashtbl.find_opt st.edges (l, h) with Some x -> x | None -> [] in
        let candidates =
          List.concat_map
            (fun qa ->
              List.filter_map
                (fun qb ->
                  if qa.q_tid = qb.q_tid then None
                  else
                    let unordered =
                      (not
                         (Causality.ordered_snapshot ~tid:qa.q_tid ~comp:qa.q_comp
                            qb.q_snap))
                      && not
                           (Causality.ordered_snapshot ~tid:qb.q_tid ~comp:qb.q_comp
                              qa.q_snap)
                    in
                    let gate_free =
                      disjoint (lock_keys qa.q_holding) (lock_keys qb.q_holding)
                    in
                    if unordered && gate_free then
                      Some (if qa.q_idx <= qb.q_idx then { d_a = qa; d_b = qb }
                            else { d_a = qb; d_b = qa })
                    else None)
                rev)
            fwd
        in
        match candidates with
        | [] -> []
        | d :: _ ->
          Hashtbl.replace reported pair_key ();
          [ Deadlock d ])
    (List.rev st.edge_order)

let run trace =
  let st =
    {
      cau = Causality.create ();
      exempt = Trace.exempt trace;
      held = Trace.Held.create fst;
      words = Hashtbl.create 1024;
      access_counts = Hashtbl.create 1024;
      request_counts = Hashtbl.create 256;
      block_counts = Hashtbl.create 64;
      race_tbl = Hashtbl.create 32;
      races = [];
      edges = Hashtbl.create 64;
      edge_order = [];
      requests = Hashtbl.create 256;
      acquires = Hashtbl.create 256;
      last_block = Hashtbl.create 64;
      pending_tokens = Hashtbl.create 64;
      lw_tbl = Hashtbl.create 8;
      lost_wakeups = [];
      waiting_on = Hashtbl.create 64;
      asleep = Hashtbl.create 64;
      impl_objs = Hashtbl.create 8;
      holders = Hashtbl.create 64;
      sw_tbl = Hashtbl.create 8;
      swaps = [];
    }
  in
  Trace.iteri
    (fun idx -> function
      | Trace.Event ev -> on_event st idx ev
      | Trace.Access a -> on_access st idx a
      | Trace.Annot an -> on_annot st idx an)
    trace;
  List.rev_map (fun r -> Race r) st.races
  @ deadlocks st
  @ List.rev_map (fun lw -> Lost_wakeup lw) st.lost_wakeups
  @ List.rev_map (fun sw -> Swap_window sw) st.swaps
