open Butterfly

type entry =
  | Event of Sched.event
  | Access of Sched.access
  | Annot of Sched.annot

(* Layout. Accesses, well over 99% of the entries of a long run, live
   in three unboxed columns indexed by access number: [time], [meta]
   (tid, proc and access kind packed into one int) and [addr]. Events
   and annotations stay boxed in a side array, each with its global
   position in [side_pos]. Entry [i] is side entry [s] if
   [side_pos.(s) = i]; otherwise it is access [i - s], where [s] counts
   the side entries before [i].

   Each access column is an array of chunks. The first chunk grows by
   doubling up to [chunk_len] entries; after it, full [chunk_len]-entry
   chunks are appended and never copied, so a long recording leaves no
   outgrown columns behind for the major heap to reclaim, while the
   many short recordings of a sweep stay small. Access [j] sits at
   offset [j land chunk_mask] of chunk [j lsr chunk_bits]. *)

let kind_bits = 2
let proc_bits = 16
let max_proc = (1 lsl proc_bits) - 1
let max_tid = max_int lsr (proc_bits + kind_bits)
let chunk_bits = 16
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

(* Word identity: addresses are (node, index) pairs and stable within
   a run, so they key every pass's tables, packed into one int (node in
   the high half) so that a per-access lookup hashes an unboxed int and
   allocates nothing. Int order on packed keys is (node, index) order. *)
type key = int

module Key_tbl = Hashtbl.Make (Int)

let key a = (Memory.node_of a lsl 32) lor Memory.index_of a
let key_name k = Printf.sprintf "%d:%d" (k lsr 32) (k land 0xffff_ffff)

(* The exemption set with a one-entry memo of the last key asked
   about: the passes ask once per access, and a spin loop asks about
   the same word over and over. *)
type exempt = {
  words : unit Key_tbl.t;
  mutable last : key;  (* -1 (no word's key) until the first question *)
  mutable last_exempt : bool;
}

let is_exempt e k =
  if k = e.last then e.last_exempt
  else begin
    let x = Key_tbl.mem e.words k in
    e.last <- k;
    e.last_exempt <- x;
    x
  end

type t = {
  mutable time : int array array;
  mutable meta : int array array;
  mutable addr : Memory.addr array array;
  mutable cap : int;  (* accesses the chunks hold room for *)
  mutable n_acc : int;
  mutable side : entry array;
  mutable side_pos : int array;
  mutable n_side : int;
  mutable n_events : int;
  procs : int;  (* processors of the recorded machine, for [timeline] *)
  mutable exempt : (int * exempt) option;
      (* the exemption scan, memoized with the trace length it read *)
}

let grown len = Int.max 1024 (2 * len)

let atomic_code = 2

let kind_code = function
  | Memory.Read_access -> 0
  | Memory.Write_access -> 1
  | Memory.Atomic_access -> atomic_code

let kind_of_code = function
  | 0 -> Memory.Read_access
  | 1 -> Memory.Write_access
  | _ -> Memory.Atomic_access

let pack (a : Sched.access) =
  if a.access_proc < 0 || a.access_proc > max_proc then
    invalid_arg (Printf.sprintf "Trace: proc %d does not fit the access column" a.access_proc);
  if a.access_tid < 0 || a.access_tid > max_tid then
    invalid_arg (Printf.sprintf "Trace: tid %d does not fit the access column" a.access_tid);
  (a.access_tid lsl (proc_bits + kind_bits))
  lor (a.access_proc lsl kind_bits)
  lor kind_code a.access_kind

(* Make room for access [t.n_acc]. An address column has no neutral
   element: it is filled with the address in hand, never read back
   before it is overwritten. *)
let grow_columns t (fill : Memory.addr) =
  let n = t.n_acc in
  if n < chunk_len then begin
    (* Still the first chunk: double it ([grown] steps through powers
       of two from 1024, so it ends at exactly [chunk_len]). *)
    let cap = grown n in
    let extend cols fill =
      let col = Array.make cap fill in
      if n > 0 then Array.blit cols.(0) 0 col 0 n;
      [| col |]
    in
    t.time <- extend t.time 0;
    t.meta <- extend t.meta 0;
    t.addr <- extend t.addr fill;
    t.cap <- cap
  end
  else begin
    let append cols fill = Array.append cols [| Array.make chunk_len fill |] in
    t.time <- append t.time 0;
    t.meta <- append t.meta 0;
    t.addr <- append t.addr fill;
    t.cap <- n + chunk_len
  end

let push_access t (a : Sched.access) =
  let meta = pack a in
  let n = t.n_acc in
  if n = t.cap then grow_columns t a.access_addr;
  let c = n lsr chunk_bits and j = n land chunk_mask in
  t.time.(c).(j) <- a.access_time;
  t.meta.(c).(j) <- meta;
  t.addr.(c).(j) <- a.access_addr;
  t.n_acc <- n + 1

let push_side t entry =
  let n = t.n_side in
  if n = Array.length t.side then begin
    let cap = grown n in
    let side = Array.make cap entry and side_pos = Array.make cap 0 in
    Array.blit t.side 0 side 0 n;
    Array.blit t.side_pos 0 side_pos 0 n;
    t.side <- side;
    t.side_pos <- side_pos
  end;
  t.side.(n) <- entry;
  t.side_pos.(n) <- t.n_acc + n;
  t.n_side <- n + 1

let attach sim =
  let t =
    { time = [||]; meta = [||]; addr = [||]; cap = 0; n_acc = 0;
      side = [||]; side_pos = [||]; n_side = 0; n_events = 0;
      procs = (Sched.config sim).Config.processors; exempt = None }
  in
  Sched.add_event_hook sim (fun ev ->
      t.n_events <- t.n_events + 1;
      push_side t (Event ev));
  Sched.add_access_hook sim (push_access t);
  Sched.add_annot_hook sim (fun a -> push_side t (Annot a));
  t

let length t = t.n_acc + t.n_side

let access_at t j =
  let c = j lsr chunk_bits and j = j land chunk_mask in
  let m = t.meta.(c).(j) in
  Access
    {
      Sched.access_time = t.time.(c).(j);
      access_proc = (m lsr kind_bits) land max_proc;
      access_tid = m lsr (proc_bits + kind_bits);
      access_addr = t.addr.(c).(j);
      access_kind = kind_of_code (m land ((1 lsl kind_bits) - 1));
    }

(* One walk: the side entries in order, each preceded by the run of
   accesses recorded before it, read straight from the columns. With
   [skip], an access to an exempt word is passed over before its entry
   is rebuilt. *)
let iteri ?skip f t =
  let accesses_upto ~from ~upto ~before =
    (* Accesses [from, upto), with [before] side entries ahead of them. *)
    match skip with
    | None ->
      for j = from to upto - 1 do
        f (j + before) (access_at t j)
      done
    | Some e ->
      for j = from to upto - 1 do
        if not (is_exempt e (key t.addr.(j lsr chunk_bits).(j land chunk_mask))) then
          f (j + before) (access_at t j)
      done
  in
  let from = ref 0 in
  for s = 0 to t.n_side - 1 do
    let pos = t.side_pos.(s) in
    accesses_upto ~from:!from ~upto:(pos - s) ~before:s;
    from := pos - s;
    f pos t.side.(s)
  done;
  accesses_upto ~from:!from ~upto:t.n_acc ~before:t.n_side

let iter ?skip f t = iteri ?skip (fun _ e -> f e) t

let iteri_side f t =
  for s = 0 to t.n_side - 1 do
    f t.side_pos.(s) t.side.(s)
  done

let events t = t.n_events
let accesses t = t.n_acc

type adaptation = {
  ad_time : int;
  ad_tid : int;
  ad_obj : string;
  ad_kind : string;
  ad_label : string;
}

let adaptations t =
  let acc = ref [] in
  for s = 0 to t.n_side - 1 do
    match t.side.(s) with
    | Annot
        {
          Sched.annotation = Ops.A_adaptation { obj_name; kind; label };
          annot_time;
          annot_tid;
          _;
        } ->
      acc :=
        {
          ad_time = annot_time;
          ad_tid = annot_tid;
          ad_obj = obj_name;
          ad_kind = kind;
          ad_label = label;
        }
        :: !acc
    | _ -> ()
  done;
  List.rev !acc

(* {2 State the passes share} *)

(* The words no race rule may report: synchronization internals,
   words declared intentionally racy, and any word an atomic operation
   touched anywhere in the run (atomics are this machine's
   synchronization instructions), so a word is exempt from its first
   access on even when the atomic comes later. Atomic accesses are
   found by reading the kind and address columns directly; a run of
   atomics on one word, a spin loop's, costs one table update. *)
let scan_exempt t =
  let words = Key_tbl.create 256 in
  let prev = ref (-1) in
  for j = 0 to t.n_acc - 1 do
    let c = j lsr chunk_bits and i = j land chunk_mask in
    if t.meta.(c).(i) land ((1 lsl kind_bits) - 1) = atomic_code then begin
      let k = key t.addr.(c).(i) in
      if k <> !prev then begin
        Key_tbl.replace words k ();
        prev := k
      end
    end
  done;
  for s = 0 to t.n_side - 1 do
    match t.side.(s) with
    | Annot { annotation = Ops.A_sync_word a | Ops.A_relaxed_word a; _ } ->
      Key_tbl.replace words (key a) ()
    | Annot _ | Event _ | Access _ -> ()
  done;
  { words; last = -1; last_exempt = false }

let exempt t =
  match t.exempt with
  | Some (len, exempt) when len = length t -> exempt
  | Some _ | None ->
    let exempt = scan_exempt t in
    t.exempt <- Some (length t, exempt);
    exempt

module Held = struct
  type 'a t = { key_of : 'a -> key; stacks : (int, 'a list) Hashtbl.t }

  let create key_of = { key_of; stacks = Hashtbl.create 64 }
  let get h tid = match Hashtbl.find_opt h.stacks tid with Some l -> l | None -> []
  let push h tid e = Hashtbl.replace h.stacks tid (e :: get h tid)

  let pop h tid k =
    let rec split acc = function
      | [] -> None
      | e :: rest when h.key_of e = k -> Some (e, List.rev_append acc rest)
      | e :: rest -> split (e :: acc) rest
    in
    match split [] (get h tid) with
    | None -> None
    | Some (e, rest) ->
      Hashtbl.replace h.stacks tid rest;
      Some e

  let drop h tid = Hashtbl.remove h.stacks tid
end

let thread_names sim =
  let table = Hashtbl.create 64 in
  List.iter (fun (tid, name, _) -> Hashtbl.replace table tid name) (Sched.thread_report sim);
  fun tid ->
    match Hashtbl.find_opt table tid with
    | Some n -> n
    | None -> Printf.sprintf "t%d" tid

(* {2 Views of the scheduling events} *)

let iter_events f t =
  iteri_side (fun _ -> function Event ev -> f ev | Access _ | Annot _ -> ()) t

let count t kind =
  let n = ref 0 in
  iter_events (fun ev -> if ev.Sched.kind = kind then incr n) t;
  !n

let event_counts t =
  String.concat ", "
    (List.map
       (fun k -> Printf.sprintf "%s=%d" (Sched.event_kind_name k) (count t k))
       [ Sched.Ev_fork; Ev_switch; Ev_preempt; Ev_block; Ev_wakeup; Ev_token;
         Ev_token_use; Ev_join; Ev_finish ])

let blocked_spans t tid =
  let spans = ref [] and pending = ref None in
  iter_events
    (fun ev ->
      if ev.Sched.tid = tid then
        match (ev.Sched.kind, !pending) with
        | Sched.Ev_block, None -> pending := Some ev.Sched.time
        | Sched.Ev_wakeup, Some t0 ->
          spans := (t0, ev.Sched.time) :: !spans;
          pending := None
        | _ -> ())
    t;
  List.rev !spans

let glyph tid =
  let alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  alphabet.[tid mod String.length alphabet]

let timeline t ~horizon =
  let width = 72 in
  if horizon <= 0 then invalid_arg "Trace.timeline: horizon must be positive";
  let lanes = Array.make_matrix t.procs width '.' in
  (* Fill each lane forward from switch events. *)
  let current = Array.make t.procs (-1) in
  let bucket time = min (width - 1) (time * width / horizon) in
  let cursor = Array.make t.procs 0 in
  let advance_to proc b =
    let c = cursor.(proc) in
    if current.(proc) >= 0 then
      for col = c to min (b - 1) (width - 1) do
        lanes.(proc).(col) <- glyph current.(proc)
      done;
    cursor.(proc) <- max c b
  in
  iter_events
    (fun ev ->
      match ev.Sched.kind with
      | Sched.Ev_switch when ev.Sched.time <= horizon ->
        advance_to ev.Sched.proc (bucket ev.Sched.time);
        current.(ev.Sched.proc) <- ev.Sched.tid
      | _ -> ())
    t;
  for proc = 0 to t.procs - 1 do
    advance_to proc width
  done;
  let buf = Buffer.create ((width + 16) * t.procs) in
  Buffer.add_string buf
    (Printf.sprintf "execution timeline (0 .. %.2f ms, one glyph per thread):\n"
       (float_of_int horizon /. 1e6));
  Array.iteri
    (fun proc lane ->
      Buffer.add_string buf (Printf.sprintf "p%-2d |" proc);
      Buffer.add_string buf (String.init width (fun c -> lane.(c)));
      Buffer.add_char buf '\n')
    lanes;
  Buffer.contents buf
