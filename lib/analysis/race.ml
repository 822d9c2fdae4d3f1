open Butterfly

type key = Trace.key

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

(* Happens-before is the hard-edge order of {!Causality.Clocks} plus
   one kind of edge: lock release -> next acquire of the same lock. *)
type state = {
  clocks : Causality.Clocks.t;
  release_clocks : (key, int array) Hashtbl.t;  (* per lock: clock at last release *)
  held : key Trace.Held.t;  (* per thread: locks held, innermost first *)
  words : word_state Trace.Key_tbl.t;
  exempt : Trace.exempt;
  findings : (key * (int * key list) * (int * key list), finding) Hashtbl.t;
  mutable finding_order : finding list;  (* newest first *)
  names : int -> string;
}

let clock_of st tid = Causality.Clocks.clock st.clocks tid

let intersect a b = List.filter (fun k -> List.mem k b) a

let word_state st k =
  match Trace.Key_tbl.find_opt st.words k with
  | Some w -> w
  | None ->
    let w = { last_write = None; reads = Hashtbl.create 4; candidates = None } in
    Trace.Key_tbl.replace st.words k w;
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
        (String.concat ", " (List.map Trace.key_name c))
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
       (Trace.key_name f.f_word) (st.names f.f_cur.p_tid) f.f_cur.p_time
       (st.names f.f_prior.p_tid) f.f_prior.p_time candidates occurrences)

let check_pair st word k ~cur ~prior =
  if prior.p_tid <> cur.p_tid then begin
    let cur_clock = clock_of st cur.p_tid in
    let ordered = prior.p_comp <= Vclock.get cur_clock prior.p_tid in
    if (not ordered) && intersect prior.p_lockset cur.p_lockset = [] then
      note_race st word k ~cur ~prior
  end

(* Exempt words never reach here: [run] skips them in the walk. *)
let on_access st (a : Sched.access) =
  let k = Trace.key a.access_addr in
  let tid = a.access_tid in
  let clock = clock_of st tid in
  let ls = Trace.Held.get st.held tid in
  let cur = { p_tid = tid; p_comp = Vclock.get clock tid; p_time = a.access_time;
              p_lockset = ls } in
  let word = word_state st k in
  (* Eraser refinement: the candidate set narrows on every access;
     an empty candidate set alone is only a suspicion — the
     happens-before test in [check_pair] confirms or clears it. *)
  word.candidates <-
    Some (match word.candidates with None -> ls | Some c -> intersect c ls);
  match a.access_kind with
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
  | Memory.Atomic_access -> ()

let on_event st (ev : Sched.event) =
  Causality.Clocks.on_event st.clocks ev;
  match ev.kind with Sched.Ev_finish -> Trace.Held.drop st.held ev.tid | _ -> ()

let on_annot st (an : Sched.annot) =
  match an.annotation with
  | Ops.A_lock_acquire { lock; _ } ->
    let k = Trace.key lock in
    let tid = an.annot_tid in
    (match Hashtbl.find_opt st.release_clocks k with
    | Some snap -> Vclock.join (clock_of st tid) snap
    | None -> ());
    Trace.Held.push st.held tid k
  | Ops.A_lock_release { lock; _ } ->
    let k = Trace.key lock in
    let tid = an.annot_tid in
    ignore (Trace.Held.pop st.held tid k : key option);
    let clock = clock_of st tid in
    Hashtbl.replace st.release_clocks k (Vclock.snapshot clock);
    Vclock.incr clock tid
  | Ops.A_lock_request _ | Ops.A_sync_word _ | Ops.A_relaxed_word _ | Ops.A_adaptation _ -> ()

let run ~names trace =
  let st =
    {
      clocks = Causality.Clocks.create ();
      release_clocks = Hashtbl.create 64;
      held = Trace.Held.create Fun.id;
      words = Trace.Key_tbl.create 1024;
      exempt = Trace.exempt trace;
      findings = Hashtbl.create 64;
      finding_order = [];
      names;
    }
  in
  Trace.iter ~skip:st.exempt
    (function
      | Trace.Event ev -> on_event st ev
      | Trace.Access a -> on_access st a
      | Trace.Annot an -> on_annot st an)
    trace;
  List.rev_map (finding_diag st) st.finding_order
