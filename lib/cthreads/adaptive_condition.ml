open Butterfly
module Attribute = Adaptive_core.Attribute
module Adaptive = Adaptive_core.Adaptive
module Sensor = Adaptive_core.Sensor

type t = {
  guard : Spin.t;  (* protects the waiter list *)
  mutable sleepers : int list;  (* FIFO, oldest first *)
  signal_seq : Memory.addr;
      (* bumped per signal/broadcast; nothing polls it, but its read and
         write are part of every signal's pinned simulated cost *)
  broadcast_hint : bool Attribute.t;  (* escalate signal to broadcast *)
  loop : Adaptive.t;
}

(* Wake-strategy adaptation: when signals keep finding a crowd, one
   broadcast replaces a train of signal calls (ActiveMonitor's
   monitor-reconfiguration observation); when waiters are scarce,
   broadcast would only cause thundering-herd wakeups, so fall back to
   single-thread signalling. As a spec: two configurations (signal-only
   and broadcast) switched on the waiter count seen at signal time. *)
let policy_spec ?(name = "adaptive-condition") () =
  let module Spec = Adaptive_core.Policy.Spec in
  let cost = Adaptive_core.Cost.reads_writes 1 1 in
  {
    Spec.s_name = name;
    s_kind = "condition";
    s_attribute = name ^ ".broadcast-hint";
    s_metric = "waiting-at-signal";
    s_monotone = Spec.Up_at_high;
    s_configs =
      [
        { Spec.c_name = "signal-only"; c_value = 0 };
        { Spec.c_name = "broadcast"; c_value = 1 };
      ];
    s_initial = 0;
    s_transitions =
      [
        {
          Spec.t_from = 0;
          t_cond = Spec.cond 4;
          t_target = 1;
          t_label = "escalate-broadcast";
          t_repeats = 1;
          t_cost = cost;
        };
        {
          Spec.t_from = 1;
          t_cond = Spec.cond 0 ~hi:1;
          t_target = 0;
          t_label = "signal-only";
          t_repeats = 1;
          t_cost = cost;
        };
      ];
    s_guard = None;
  }

let create ?node ?(name = "adaptive-condition") () =
  let signal_seq = Ops.alloc1 ?node () in
  Ops.mark_sync_words [| signal_seq |];
  let home = match node with Some p -> p | None -> Ops.my_processor () in
  let rec t =
    lazy
      (let loop =
         Adaptive.create ~spec:(policy_spec ~name ()) ~home
           ~sensor:(Sensor.make ~period:2 (fun () -> List.length (Lazy.force t).sleepers))
           ~read:(fun () -> if Attribute.get (Lazy.force t).broadcast_hint then 1 else 0)
           ~apply:(fun v ->
             Attribute.set (Lazy.force t).broadcast_hint (v = 1);
             true)
       in
       let broadcast_hint = Attribute.make_at ~name:"broadcast-hint" ~node:home false in
       (* The word a retired wait-spin budget attribute allocated: kept
          so that every later allocation, and with it every simulated
          outcome, stays where it was. *)
       Ops.mark_sync_words [| Ops.alloc1 ~node:home () |];
       { guard = Spin.create ?node (); sleepers = []; signal_seq; broadcast_hint; loop })
  in
  Lazy.force t

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

let wake_all t =
  Spin.lock t.guard;
  let sleepers = t.sleepers in
  t.sleepers <- [];
  Ops.write t.signal_seq (Ops.read t.signal_seq + 1);
  Spin.unlock t.guard;
  List.iter Ops.wakeup sleepers

let signal t =
  (* Tick before dequeuing so the sensor sees the pre-wake crowd. *)
  ignore (Adaptive.tick t.loop);
  if Attribute.get t.broadcast_hint then wake_all t
  else begin
    Spin.lock t.guard;
    match t.sleepers with
    | [] -> Spin.unlock t.guard
    | tid :: rest ->
      t.sleepers <- rest;
      Ops.write t.signal_seq (Ops.read t.signal_seq + 1);
      Spin.unlock t.guard;
      Ops.wakeup tid
  end

let broadcasting t = Attribute.get t.broadcast_hint
let loop t = t.loop
