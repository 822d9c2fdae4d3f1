open Butterfly

type message = Acquire of int | Release | Stop

type t = {
  mailbox_guard : Memory.addr;  (* on the server's node *)
  mailbox_signal : Memory.addr;  (* message counter: writing it models the send *)
  mutable mailbox : message list;  (* newest first *)
  mutable server : Ops.tid;
  lock_stats : Lock_stats.t;
}

let guard_lock t =
  while not (Ops.test_and_set t.mailbox_guard) do
    ()
  done

let guard_unlock t = Ops.write t.mailbox_guard 0

let send t msg =
  guard_lock t;
  t.mailbox <- msg :: t.mailbox;
  ignore (Ops.fetch_and_add t.mailbox_signal 1);
  guard_unlock t;
  Ops.wakeup t.server

let take_all t =
  guard_lock t;
  let messages = List.rev t.mailbox in
  t.mailbox <- [];
  guard_unlock t;
  messages

let server_body t () =
  let held = ref false in
  let waiting : int Queue.t = Queue.create () in
  let running = ref true in
  let grant tid =
    held := true;
    Ops.wakeup tid
  in
  while !running || !held || not (Queue.is_empty waiting) do
    (match take_all t with
    | [] -> Ops.block ()
    | messages ->
      List.iter
        (fun msg ->
          (* Per-message processing cost on the server. *)
          Ops.work_instrs 120;
          match msg with
          | Acquire tid -> if !held then Queue.add tid waiting else grant tid
          | Release -> (
            Lock_stats.on_handoff t.lock_stats;
            match Queue.take_opt waiting with
            | Some next -> grant next
            | None -> held := false)
          | Stop -> running := false)
        messages)
  done

let create ~server_proc () =
  let name = "active-lock" in
  let words = Ops.alloc ~node:server_proc 2 in
  Ops.mark_sync_words words;
  let t =
    {
      mailbox_guard = words.(0);
      mailbox_signal = words.(1);
      mailbox = [];
      server = 0;
      lock_stats = Lock_stats.create name;
    }
  in
  t.server <-
    Ops.fork
      { f = server_body t; proc = Some server_proc; prio = 5; name = name ^ ".server" };
  t

let lock t =
  Lock_stats.on_lock t.lock_stats;
  Ops.work_instrs 200;
  let t0 = Ops.now () in
  send t (Acquire (Ops.self ()));
  (* Sleep until the server grants; waiters cause no interconnect
     traffic at all while waiting. *)
  Ops.block ();
  let wait = Ops.now () - t0 in
  if wait > 0 then Lock_stats.on_contended t.lock_stats;
  Lock_stats.on_acquired t.lock_stats ~wait_ns:wait

let unlock t =
  Lock_stats.on_unlock t.lock_stats;
  Ops.work_instrs 120;
  send t Release

let shutdown t =
  send t Stop;
  Ops.join t.server

let stats t = t.lock_stats
