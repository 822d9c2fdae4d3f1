open Butterfly

type t = {
  guard : Memory.addr;  (* protects queue + held *)
  held_word : Memory.addr;
  flags : Memory.addr array;  (* one per processor, homed locally *)
  mutable waiters : (int * int) list;  (* (tid, proc), FIFO, front first *)
  lock_stats : Lock_stats.t;
}

let create ~home () =
  let name = "local-spin-lock" in
  let words = Ops.alloc ~node:home 2 in
  let processors = Ops.processors () in
  Ops.mark_sync_words words;
  let flags = Array.init processors (fun node -> Ops.alloc1 ~node ()) in
  Ops.mark_sync_words flags;
  {
    guard = words.(0);
    held_word = words.(1);
    flags;
    waiters = [];
    lock_stats = Lock_stats.create name;
  }

let stats t = t.lock_stats

let guard_lock t =
  while not (Ops.test_and_set t.guard) do
    ()
  done

let guard_unlock t = Ops.write t.guard 0

let lock t =
  Lock_stats.on_lock t.lock_stats;
  Ops.work_instrs Lock_costs.spin.Lock_costs.lock_overhead_instrs;
  let me = Ops.self () and my_proc = Ops.my_processor () in
  let t0 = Ops.now () in
  guard_lock t;
  if Ops.read t.held_word = 0 then begin
    Ops.write t.held_word 1;
    guard_unlock t;
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0
  end
  else begin
    Lock_stats.on_contended t.lock_stats;
    (* Arm the local flag, then register and spin on local memory
       only. *)
    Ops.write t.flags.(my_proc) 0;
    t.waiters <- t.waiters @ [ (me, my_proc) ];
    guard_unlock t;
    let flag = t.flags.(my_proc) in
    let rec poll () =
      (* One fused iteration: local read plus the inter-probe gap when
         the flag is still unset. *)
      if Ops.read_hint ~gap_ns:1_000 ~expect:0 flag = 0 then begin
        Lock_stats.on_spin_probe t.lock_stats;
        poll ()
      end
    in
    poll ();
    Lock_stats.on_acquired t.lock_stats ~wait_ns:(Ops.now () - t0)
  end

let unlock t =
  Lock_stats.on_unlock t.lock_stats;
  Ops.work_instrs Lock_costs.spin.Lock_costs.unlock_overhead_instrs;
  guard_lock t;
  match t.waiters with
  | (_, proc) :: rest ->
    t.waiters <- rest;
    guard_unlock t;
    Lock_stats.on_handoff t.lock_stats;
    (* A single remote write into the waiter's local module. *)
    Ops.write t.flags.(proc) 1
  | [] ->
    Ops.write t.held_word 0;
    guard_unlock t
