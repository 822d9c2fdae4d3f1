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
   the side entries before [i]. *)

let kind_bits = 2
let proc_bits = 16
let max_proc = (1 lsl proc_bits) - 1
let max_tid = max_int lsr (proc_bits + kind_bits)

type t = {
  mutable time : int array;
  mutable meta : int array;
  mutable addr : Memory.addr array;
  mutable n_acc : int;
  mutable side : entry array;
  mutable side_pos : int array;
  mutable n_side : int;
  mutable n_events : int;
}

let grown len = max 1024 (2 * len)

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

let push_access t (a : Sched.access) =
  let meta = pack a in
  let n = t.n_acc in
  if n = Array.length t.time then begin
    let cap = grown n in
    let extend col fill =
      let col' = Array.make cap fill in
      Array.blit col 0 col' 0 n;
      col'
    in
    t.time <- extend t.time 0;
    t.meta <- extend t.meta 0;
    (* An address column has no neutral element: fill with the one in
       hand, never read back before it is overwritten. *)
    t.addr <- extend t.addr a.access_addr
  end;
  t.time.(n) <- a.access_time;
  t.meta.(n) <- meta;
  t.addr.(n) <- a.access_addr;
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
    { time = [||]; meta = [||]; addr = [||]; n_acc = 0;
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
  let m = t.meta.(j) in
  Access
    {
      Sched.access_time = t.time.(j);
      access_proc = (m lsr kind_bits) land max_proc;
      access_tid = m lsr (proc_bits + kind_bits);
      access_addr = t.addr.(j);
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
