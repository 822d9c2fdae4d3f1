open Butterfly

type t = {
  guard : Spin.t;  (* protects the waiter list *)
  mutable sleepers : int list;  (* FIFO, oldest first *)
}

let create ?node () = { guard = Spin.create ?node (); sleepers = [] }

let wait t mu =
  Spin.lock t.guard;
  t.sleepers <- t.sleepers @ [ Ops.self () ];
  Spin.unlock t.guard;
  (* Release the monitor mutex only after registering, so a signal
     racing with this wait cannot be lost (the wake token absorbs an
     early wakeup). *)
  Spin.unlock mu;
  Ops.block ();
  Spin.lock mu

let signal t =
  Spin.lock t.guard;
  (match t.sleepers with
  | [] -> Spin.unlock t.guard
  | tid :: rest ->
    t.sleepers <- rest;
    Spin.unlock t.guard;
    Ops.wakeup tid)

let broadcast t =
  Spin.lock t.guard;
  let sleepers = t.sleepers in
  t.sleepers <- [];
  Spin.unlock t.guard;
  List.iter Ops.wakeup sleepers
