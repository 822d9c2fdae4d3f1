open Butterfly

type t = {
  mutex : Spin.t;
  permits : Memory.addr;  (* simulated word: current permit count *)
  waiters : int Queue.t;  (* host-side FIFO of blocked tids *)
}

let create ?node n =
  if n < 0 then invalid_arg "Semaphore.create: negative permits";
  let permits = Ops.alloc1 ?node () in
  Ops.mark_sync_words [| permits |];
  Ops.write permits n;
  { mutex = Spin.create ?node (); permits; waiters = Queue.create () }

let acquire t =
  Spin.lock t.mutex;
  let n = Ops.read t.permits in
  if n > 0 then begin
    Ops.write t.permits (n - 1);
    Spin.unlock t.mutex
  end
  else begin
    Queue.add (Ops.self ()) t.waiters;
    Spin.unlock t.mutex;
    (* A release racing ahead leaves a wake token, so this never hangs. *)
    Ops.block ()
  end

let try_acquire t =
  Spin.lock t.mutex;
  let n = Ops.read t.permits in
  let ok = n > 0 in
  if ok then Ops.write t.permits (n - 1);
  Spin.unlock t.mutex;
  ok

let release t =
  Spin.lock t.mutex;
  (match Queue.take_opt t.waiters with
  | Some tid ->
    Spin.unlock t.mutex;
    (* Hand the permit directly to the waiter. *)
    Ops.wakeup tid
  | None ->
    Ops.write t.permits (Ops.read t.permits + 1);
    Spin.unlock t.mutex)
