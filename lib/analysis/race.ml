open Butterfly

(* Word identity: addresses are (node, index) pairs and stable within
   a run, so they key every table, packed into one int (node in the
   high half) so that the per-access lookups hash an unboxed int and
   allocate nothing. Int order on packed keys is (node, index) order. *)
type key = int

module Key_tbl = Hashtbl.Make (Int)

let key a = (Memory.node_of a lsl 32) lor Memory.index_of a
let key_name k = Printf.sprintf "%d:%d" (k lsr 32) (k land 0xffff_ffff)

(* One prior access in epoch form: [comp] is the accessor's own
   vector-clock component at the access, so "that access happened
   before thread [v]'s current point" is [comp <= v_clock.(tid)]. *)
type prior = { p_tid : int; p_comp : int; p_time : int; p_lockset : key list }

type word_state = {
  mutable last_write : prior option;
  reads : (int, prior) Hashtbl.t;  (* latest read per thread since the last write *)
  mutable candidates : key list option;  (* Eraser candidate lockset *)
}

(* An aggregated race finding: one per (word, site pair, lock sets).
   Loops hitting the same racy pair every iteration bump [f_count]
   instead of flooding the report. *)
type finding = {
  f_word : key;
  f_cur : prior;  (* the pair's first occurrence, in trace order *)
  f_prior : prior;
  f_candidates : key list option;  (* Eraser candidate set at first occurrence *)
  mutable f_count : int;
}

type state = {
  clocks : (int, Vclock.t) Hashtbl.t;
  tokens : (int, int array Queue.t) Hashtbl.t;  (* pending wake-token snapshots *)
  release_clocks : (key, int array) Hashtbl.t;  (* per lock: clock at last release *)
  held : (int, key list) Hashtbl.t;  (* per thread: locks held, innermost first *)
  finished : (int, int array) Hashtbl.t;
      (* epoch-collapse: a finished thread's clock survives only as
         this one snapshot (for join edges); its live clock, pending
         tokens and lockset are dropped so detector state stays
         bounded by live threads, not by every thread that ever ran *)
  words : word_state Key_tbl.t;
  exempt : unit Key_tbl.t;
  findings : (key * (int * key list) * (int * key list), finding) Hashtbl.t;
  mutable finding_order : finding list;  (* newest first *)
  names : int -> string;
}

let clock_of st tid =
  match Hashtbl.find_opt st.clocks tid with
  | Some c -> c
  | None ->
    let c = Vclock.create () in
    (* Own component starts at 1: "component 0 is known" must not hold
       for threads that never synchronized. *)
    Vclock.set c tid 1;
    Hashtbl.replace st.clocks tid c;
    c

let lockset st tid = match Hashtbl.find_opt st.held tid with Some l -> l | None -> []

let intersect a b = List.filter (fun k -> List.mem k b) a

(* Scan the whole trace first for words the detector must ignore:
   synchronization internals, words declared intentionally racy, and
   any word ever touched by an atomic operation (atomics are this
   machine's synchronization instructions). *)
let prescan trace =
  let exempt = Key_tbl.create 256 in
  Trace.iter
    (function
      | Trace.Annot { annotation = Ops.A_sync_word a; _ }
      | Trace.Annot { annotation = Ops.A_relaxed_word a; _ } ->
        Key_tbl.replace exempt (key a) ()
      | Trace.Annot _ -> ()
      | Trace.Access { access_kind = Memory.Atomic_access; access_addr; _ } ->
        Key_tbl.replace exempt (key access_addr) ()
      | Trace.Access _ | Trace.Event _ -> ())
    trace;
  exempt

let word_state st k =
  match Key_tbl.find_opt st.words k with
  | Some w -> w
  | None ->
    let w = { last_write = None; reads = Hashtbl.create 4; candidates = None } in
    Key_tbl.replace st.words k w;
    w

(* Record a racing pair, deduped by (word, site pair, lock sets). The
   site pair is canonicalized by tid order so (a races b) and
   (b races a) aggregate into one finding. *)
let note_race st word k ~cur ~prior =
  let site p = (p.p_tid, List.sort compare p.p_lockset) in
  let sa, sb = (site prior, site cur) in
  let fkey = if fst sa <= fst sb then (k, sa, sb) else (k, sb, sa) in
  match Hashtbl.find_opt st.findings fkey with
  | Some f -> f.f_count <- f.f_count + 1
  | None ->
    let f = { f_word = k; f_cur = cur; f_prior = prior;
              f_candidates = word.candidates; f_count = 1 } in
    Hashtbl.replace st.findings fkey f;
    st.finding_order <- f :: st.finding_order

let finding_diag st f =
  let candidates =
    match f.f_candidates with
    | Some (_ :: _ as c) ->
      Printf.sprintf " (candidate locks left: %s)"
        (String.concat ", " (List.map key_name c))
    | Some [] | None -> " (Eraser candidate set empty)"
  in
  let occurrences =
    if f.f_count > 1 then Printf.sprintf "; %d occurrences of this site pair" f.f_count
    else ""
  in
  Diag.make ~category:Diag.Race ~rule:"data-race" ~time:f.f_cur.p_time
    ~thread:(st.names f.f_cur.p_tid)
    (Printf.sprintf
       "word %s: access by %s at %d ns races with access by %s at %d ns; no common \
        lock and no happens-before order%s%s"
       (key_name f.f_word) (st.names f.f_cur.p_tid) f.f_cur.p_time
       (st.names f.f_prior.p_tid) f.f_prior.p_time candidates occurrences)

let check_pair st word k ~cur ~prior =
  if prior.p_tid <> cur.p_tid then begin
    let cur_clock = clock_of st cur.p_tid in
    let ordered = prior.p_comp <= Vclock.get cur_clock prior.p_tid in
    if (not ordered) && intersect prior.p_lockset cur.p_lockset = [] then
      note_race st word k ~cur ~prior
  end

let on_access st (a : Sched.access) =
  let k = key a.access_addr in
  if not (Key_tbl.mem st.exempt k) then begin
    let tid = a.access_tid in
    let clock = clock_of st tid in
    let ls = lockset st tid in
    let cur = { p_tid = tid; p_comp = Vclock.get clock tid; p_time = a.access_time;
                p_lockset = ls } in
    let word = word_state st k in
    (* Eraser refinement: the candidate set narrows on every access;
       an empty candidate set alone is only a suspicion — the
       happens-before test in [check_pair] confirms or clears it. *)
    word.candidates <-
      Some (match word.candidates with None -> ls | Some c -> intersect c ls);
    (match a.access_kind with
    | Memory.Read_access ->
      (match word.last_write with
      | Some w -> check_pair st word k ~cur ~prior:w
      | None -> ());
      Hashtbl.replace word.reads tid cur
    | Memory.Write_access ->
      (match word.last_write with
      | Some w -> check_pair st word k ~cur ~prior:w
      | None -> ());
      Hashtbl.iter (fun _ r -> check_pair st word k ~cur ~prior:r) word.reads;
      Hashtbl.reset word.reads;
      word.last_write <- Some cur
    | Memory.Atomic_access -> ())
  end

let on_event st (ev : Sched.event) =
  match ev.kind with
  | Sched.Ev_fork ->
    (* tid = child, other = parent: the child starts after the fork. *)
    if ev.other >= 0 then begin
      let parent = clock_of st ev.other in
      let child = clock_of st ev.tid in
      Vclock.join child (Vclock.snapshot parent);
      Vclock.set child ev.tid (Vclock.get child ev.tid + 1);
      Vclock.incr parent ev.other
    end
  | Sched.Ev_wakeup ->
    (* tid = wakee, other = waker: everything the waker did is visible
       to the wakee when it resumes. *)
    if ev.other >= 0 then begin
      let waker = clock_of st ev.other in
      Vclock.join (clock_of st ev.tid) (Vclock.snapshot waker);
      Vclock.incr waker ev.other
    end
  | Sched.Ev_token ->
    (* A wakeup of a not-yet-blocked thread: the edge lands when the
       token is absorbed, so snapshot the waker now. *)
    if ev.other >= 0 then begin
      let waker = clock_of st ev.other in
      let q =
        match Hashtbl.find_opt st.tokens ev.tid with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace st.tokens ev.tid q;
          q
      in
      Queue.add (Vclock.snapshot waker) q;
      Vclock.incr waker ev.other
    end
  | Sched.Ev_token_use -> (
    match Hashtbl.find_opt st.tokens ev.tid with
    | Some q when not (Queue.is_empty q) ->
      Vclock.join (clock_of st ev.tid) (Queue.pop q)
    | Some _ | None -> ())
  | Sched.Ev_join ->
    (* tid = joiner, other = finished thread: join sees everything.
       The target has usually finished already, so its clock lives in
       the collapsed-snapshot table. *)
    if ev.other >= 0 then begin
      let snap =
        match Hashtbl.find_opt st.finished ev.other with
        | Some snap -> snap
        | None -> Vclock.snapshot (clock_of st ev.other)
      in
      Vclock.join (clock_of st ev.tid) snap
    end
  | Sched.Ev_finish ->
    (* Epoch-collapse: keep only the final snapshot (joiners may still
       need the edge); drop the thread's live detector state. *)
    Hashtbl.replace st.finished ev.tid (Vclock.snapshot (clock_of st ev.tid));
    Hashtbl.remove st.clocks ev.tid;
    Hashtbl.remove st.tokens ev.tid;
    Hashtbl.remove st.held ev.tid
  | Sched.Ev_switch | Sched.Ev_preempt | Sched.Ev_block -> ()

let on_annot st (an : Sched.annot) =
  match an.annotation with
  | Ops.A_lock_acquire { lock; _ } ->
    let k = key lock in
    let tid = an.annot_tid in
    (match Hashtbl.find_opt st.release_clocks k with
    | Some snap -> Vclock.join (clock_of st tid) snap
    | None -> ());
    Hashtbl.replace st.held tid (k :: lockset st tid)
  | Ops.A_lock_release { lock; _ } ->
    let k = key lock in
    let tid = an.annot_tid in
    let rec remove = function
      | [] -> []
      | k' :: rest -> if k' = k then rest else k' :: remove rest
    in
    Hashtbl.replace st.held tid (remove (lockset st tid));
    let clock = clock_of st tid in
    Hashtbl.replace st.release_clocks k (Vclock.snapshot clock);
    Vclock.incr clock tid
  | Ops.A_lock_request _ | Ops.A_sync_word _ | Ops.A_relaxed_word _ | Ops.A_adaptation _ -> ()

let run ~names trace =
  let st =
    {
      clocks = Hashtbl.create 64;
      tokens = Hashtbl.create 64;
      release_clocks = Hashtbl.create 64;
      held = Hashtbl.create 64;
      finished = Hashtbl.create 64;
      words = Key_tbl.create 1024;
      exempt = prescan trace;
      findings = Hashtbl.create 64;
      finding_order = [];
      names;
    }
  in
  Trace.iter
    (function
      | Trace.Event ev -> on_event st ev
      | Trace.Access a -> on_access st a
      | Trace.Annot an -> on_annot st an)
    trace;
  List.rev_map (finding_diag st) st.finding_order
