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
}

let grown len = Int.max 1024 (2 * len)

let kind_code = function
  | Memory.Read_access -> 0
  | Memory.Write_access -> 1
  | Memory.Atomic_access -> 2

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
      side = [||]; side_pos = [||]; n_side = 0; n_events = 0 }
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

let iteri f t =
  let s = ref 0 in
  for i = 0 to length t - 1 do
    if !s < t.n_side && t.side_pos.(!s) = i then begin
      f i t.side.(!s);
      incr s
    end
    else f i (access_at t (i - !s))
  done

let iter f t = iteri (fun _ e -> f e) t

let iter_side f t =
  for s = 0 to t.n_side - 1 do
    f t.side.(s)
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
