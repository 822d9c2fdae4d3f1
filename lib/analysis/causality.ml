open Butterfly

(* The weaker-than-happens-before causality engine behind the
   predictive passes (WCP/DC style).

   The observed-trace detectors use classic happens-before: every lock
   release orders every later acquire of the same lock. That order is
   an artifact of the schedule the run happened to take — swapping two
   critical sections on the same lock is a legal reordering whenever
   the sections don't conflict. This engine therefore keeps only the
   edges every legal reordering must preserve:

   - the hard scheduler edges: fork -> child, finished thread -> join,
     waker -> wakee (including the wake-token variants) — these are
     control dependencies, not schedule accidents;
   - release -> access edges between {e conflicting} critical sections
     on the same lock: if section A wrote word w and section B (same
     lock, different thread) later touches w, B's access is ordered
     after A's release — mutual exclusion plus the data flowing
     through w pin that direction in every reordering.

   Plain release -> acquire edges are dropped. Everything the weak
   order leaves unordered is a candidate reordering; soundness of any
   finding built on it comes from witness replay, not from the order
   itself. *)

(* {2 Thread clocks over the hard edges}

   The one engine for the scheduler's edges, shared by this order and
   by the observed race detector's happens-before (which adds only
   release -> acquire on top). *)
module Clocks = struct
  type t = {
    clocks : (int, Vclock.t) Hashtbl.t;
    tokens : (int, int array Queue.t) Hashtbl.t;  (* pending wake-token snapshots *)
    finished : (int, int array) Hashtbl.t;
        (* epoch-collapse: a finished thread's clock survives only as
           this one snapshot (for join edges); its live clock and
           pending tokens are dropped so the state stays bounded by
           live threads, not by every thread that ever ran *)
  }

  let create () =
    { clocks = Hashtbl.create 64; tokens = Hashtbl.create 64; finished = Hashtbl.create 64 }

  let clock t tid =
    match Hashtbl.find_opt t.clocks tid with
    | Some c -> c
    | None ->
      let c = Vclock.create () in
      (* Own component starts at 1: "component 0 is known" must not
         hold for threads that never synchronized. *)
      Vclock.set c tid 1;
      Hashtbl.replace t.clocks tid c;
      c

  let on_event t (ev : Sched.event) =
    match ev.kind with
    | Sched.Ev_fork ->
      (* tid = child, other = parent: the child starts after the fork. *)
      if ev.other >= 0 then begin
        let pc = clock t ev.other in
        let cc = clock t ev.tid in
        Vclock.join_clock cc pc;
        Vclock.set cc ev.tid (Vclock.get cc ev.tid + 1);
        Vclock.incr pc ev.other
      end
    | Sched.Ev_wakeup ->
      (* tid = wakee, other = waker: everything the waker did is
         visible to the wakee when it resumes. *)
      if ev.other >= 0 then begin
        let waker = clock t ev.other in
        Vclock.join_clock (clock t ev.tid) waker;
        Vclock.incr waker ev.other
      end
    | Sched.Ev_token ->
      (* A wakeup of a not-yet-blocked thread: the edge lands when the
         token is absorbed, so snapshot the waker now. *)
      if ev.other >= 0 then begin
        let waker = clock t ev.other in
        let q =
          match Hashtbl.find_opt t.tokens ev.tid with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace t.tokens ev.tid q;
            q
        in
        Queue.add (Vclock.snapshot waker) q;
        Vclock.incr waker ev.other
      end
    | Sched.Ev_token_use -> (
      match Hashtbl.find_opt t.tokens ev.tid with
      | Some q when not (Queue.is_empty q) -> Vclock.join (clock t ev.tid) (Queue.pop q)
      | Some _ | None -> ())
    | Sched.Ev_join ->
      (* tid = joiner, other = finished thread: join sees everything.
         The target has usually finished already, so its clock lives
         in the collapsed-snapshot table. *)
      if ev.other >= 0 then begin
        match Hashtbl.find_opt t.finished ev.other with
        | Some snap -> Vclock.join (clock t ev.tid) snap
        | None -> Vclock.join_clock (clock t ev.tid) (clock t ev.other)
      end
    | Sched.Ev_finish ->
      Hashtbl.replace t.finished ev.tid (Vclock.snapshot (clock t ev.tid));
      Hashtbl.remove t.clocks ev.tid;
      Hashtbl.remove t.tokens ev.tid
    | Sched.Ev_switch | Sched.Ev_preempt | Sched.Ev_block -> ()
end

type key = Trace.key

(* An open critical section: the lock and the words its owner touched
   while inside (with a wrote-flag), recorded so the release can
   publish them as conflict edges. *)
type cs = { cs_lock : key; cs_words : (key, bool) Hashtbl.t }

type t = {
  clocks : Clocks.t;
  open_cs : cs Trace.Held.t;  (* per thread, innermost first *)
  conflict_touch : (key * key, int array) Hashtbl.t;
      (* (lock, word) -> pointwise max of the release clocks of every
         closed section on [lock] that touched [word] *)
  conflict_write : (key * key, int array) Hashtbl.t;
      (* same, restricted to sections that wrote [word] *)
}

let create () =
  {
    clocks = Clocks.create ();
    open_cs = Trace.Held.create (fun cs -> cs.cs_lock);
    conflict_touch = Hashtbl.create 256;
    conflict_write = Hashtbl.create 256;
  }

let clock_of t tid = Clocks.clock t.clocks tid
let epoch t tid = Vclock.get (clock_of t tid) tid
let snapshot t tid = Vclock.snapshot (clock_of t tid)

(* The epoch ordering test: an event by [tid] with own-component
   [comp] is weakly ordered before thread [obs]'s current point iff
   [obs] has absorbed that component. *)
let ordered t ~tid ~comp ~before:obs = comp <= Vclock.get (clock_of t obs) tid

let ordered_snapshot ~tid ~comp snap =
  tid < Array.length snap && comp <= snap.(tid)

(* Merge a release snapshot into a conflict table cell (pointwise max,
   growing the stored array as needed). Accumulating the max over all
   conflicting sections is exact: the tables are per (lock, word). *)
let merge tbl cell snap =
  match Hashtbl.find_opt tbl cell with
  | None -> Hashtbl.replace tbl cell (Array.copy snap)
  | Some old ->
    if Array.length old >= Array.length snap then
      Array.iteri (fun i v -> if v > old.(i) then old.(i) <- v) snap
    else begin
      let merged = Array.copy snap in
      Array.iteri (fun i v -> if v > merged.(i) then merged.(i) <- v) old;
      Hashtbl.replace tbl cell merged
    end

(* {2 Feeding the trace} *)

let on_event t (ev : Sched.event) =
  Clocks.on_event t.clocks ev;
  match ev.kind with Sched.Ev_finish -> Trace.Held.drop t.open_cs ev.tid | _ -> ()

let on_acquire t ~tid ~lock =
  (* No release-clock join: that is exactly the HB edge this engine
     drops. The section opens and starts recording its word set. *)
  Trace.Held.push t.open_cs tid { cs_lock = lock; cs_words = Hashtbl.create 8 }

let on_release t ~tid ~lock =
  match Trace.Held.pop t.open_cs tid lock with
  | None -> ()
  | Some cs ->
    let clock = clock_of t tid in
    let snap = Vclock.snapshot clock in
    Hashtbl.iter
      (fun w wrote ->
        merge t.conflict_touch (lock, w) snap;
        if wrote then merge t.conflict_write (lock, w) snap)
      cs.cs_words;
    Vclock.incr clock tid

(* An access inside one or more open sections first absorbs the
   release clocks of every earlier conflicting section on the same
   locks (write vs any earlier touch; read vs earlier writes), then is
   recorded into the open sections' word sets. Accesses outside any
   section neither create nor receive conflict edges — only the hard
   edges order them. *)
let on_access t ~tid ~word ~write =
  match Trace.Held.get t.open_cs tid with
  | [] -> ()
  | sections ->
    let clock = clock_of t tid in
    List.iter
      (fun cs ->
        let cell = (cs.cs_lock, word) in
        (match Hashtbl.find_opt t.conflict_touch cell with
        | Some snap when write -> Vclock.join clock snap
        | _ -> ());
        (if not write then
           match Hashtbl.find_opt t.conflict_write cell with
           | Some snap -> Vclock.join clock snap
           | None -> ());
        match Hashtbl.find_opt cs.cs_words word with
        | Some true -> ()
        | Some false -> if write then Hashtbl.replace cs.cs_words word true
        | None -> Hashtbl.replace cs.cs_words word write)
      sections
