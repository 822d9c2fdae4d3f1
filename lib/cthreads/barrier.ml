open Butterfly

type t = {
  mutex : Spin.t;
  parties : int;
  count : Memory.addr;  (* arrivals in the current cycle *)
  mutable sleepers : int list;
}

let create ?node n =
  if n < 1 then invalid_arg "Barrier.create: need at least one party";
  let count = Ops.alloc1 ?node () in
  Ops.mark_sync_words [| count |];
  { mutex = Spin.create ?node (); parties = n; count; sleepers = [] }

let await t =
  Spin.lock t.mutex;
  let arrived = Ops.read t.count + 1 in
  if arrived = t.parties then begin
    let sleepers = t.sleepers in
    t.sleepers <- [];
    Ops.write t.count 0;
    Spin.unlock t.mutex;
    List.iter Ops.wakeup (List.rev sleepers)
  end
  else begin
    Ops.write t.count arrived;
    t.sleepers <- Ops.self () :: t.sleepers;
    Spin.unlock t.mutex;
    Ops.block ()
  end
