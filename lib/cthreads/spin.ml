open Butterfly

type t = Memory.addr

(* Gap between failed probes: long enough to keep the event count sane,
   short enough not to distort latencies (one local read's worth). *)
let probe_gap_ns = 600

let spin_name t = Printf.sprintf "spin<%d:%d>" (Memory.node_of t) (Memory.index_of t)

let create ?node () =
  let t = Ops.alloc1 ?node () in
  Ops.mark_sync_words [| t |];
  t

(* Annotation payloads (records plus a formatted name) are only built
   when someone is listening — with zero subscribers these are single
   flag reads on the lock fast path. *)
let note_acquired t =
  if Ops.annotations_enabled () then
    Ops.annotate
      (Ops.A_lock_acquire { lock = t; lock_name = spin_name t; spin_wait = true })

let try_lock t =
  let got = Ops.test_and_set t in
  if got then note_acquired t;
  got

let lock t =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_request { lock = t; lock_name = spin_name t });
  (* Busy-wait: the gap between probes occupies the processor, as real
     spinning does. Each iteration (test-and-set plus the gap on
     failure) is one fused effect. *)
  while not (Ops.lock_probe ~gap_ns:probe_gap_ns t) do
    ()
  done;
  note_acquired t

let unlock t =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_release { lock = t; lock_name = spin_name t });
  Ops.write t 0
