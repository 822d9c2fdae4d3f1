open Butterfly
module Attribute = Adaptive_core.Attribute
module Adaptive = Adaptive_core.Adaptive
module Sensor = Adaptive_core.Sensor

type observation = { waiting : int; broadcast : bool }

type t = {
  guard : Spin.t;  (* protects the waiter list *)
  mutable sleepers : int list;  (* FIFO, oldest first *)
  signal_seq : Memory.addr;  (* bumped per signal/broadcast: the spin hint *)
  spin_ns : int Attribute.t;  (* wait spin budget before descheduling *)
  broadcast_hint : bool Attribute.t;  (* escalate signal to broadcast *)
  loop : observation Adaptive.t;
}

let probe_gap_ns = Spin.probe_gap_ns

(* Wake-strategy adaptation: when signals keep finding a crowd, one
   broadcast replaces a train of signal calls (ActiveMonitor's
   monitor-reconfiguration observation); when waiters are scarce,
   broadcast would only cause thundering-herd wakeups, so fall back to
   single-thread signalling. As a spec: two configurations (signal-only
   and broadcast) switched on the waiter count seen at signal time. *)
let policy_spec ?(name = "adaptive-condition") ?attribute ?(broadcast_over = 4) () =
  let module Spec = Adaptive_core.Policy.Spec in
  let cost = Adaptive_core.Cost.reads_writes 1 1 in
  {
    Spec.s_name = name;
    s_kind = "condition";
    s_attribute =
      (match attribute with Some a -> a | None -> name ^ ".broadcast-hint");
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
          t_cond = Spec.cond broadcast_over;
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

let create ?node ?(name = "adaptive-condition") ?(period = 2) ?(broadcast_over = 4) ()
    =
  (* [broadcast_over <= 1] overlaps the de-escalation band (waiters <=
     1): one waiter would escalate on this signal and de-escalate on
     the next, adapting forever — the checker's thrash cycle. *)
  if broadcast_over < 2 then
    invalid_arg "Adaptive_condition.create: broadcast_over must be at least 2";
  let signal_seq = Ops.alloc1 ?node () in
  Ops.mark_sync_words [| signal_seq |];
  let home = match node with Some p -> p | None -> Ops.my_processor () in
  let rec t =
    lazy
      {
        guard = Spin.create ?node ();
        sleepers = [];
        signal_seq;
        spin_ns = Attribute.make_at ~name:"wait-spin-ns" ~node:home 0;
        broadcast_hint = Attribute.make_at ~name:"broadcast-hint" ~node:home false;
        loop =
          Adaptive.create ~name ~kind:"condition"
            ~spec:(policy_spec ~name ~broadcast_over ()) ~home
            ~sensor:
              (Sensor.make ~period (fun () ->
                   let c = Lazy.force t in
                   {
                     waiting = List.length c.sleepers;
                     broadcast = Attribute.get c.broadcast_hint;
                   }))
            ~read:(fun () ->
              if Attribute.get (Lazy.force t).broadcast_hint then 1 else 0)
            ~apply:(fun v ->
              Attribute.set (Lazy.force t).broadcast_hint (v = 1);
              true)
            ~metric:(fun obs -> obs.waiting)
            ();
      }
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
  (* Spin phase: watch the signal sequence word purely as a hint. The
     wakeup targets a specific thread, so seeing a bump does not mean
     it was for us — which is why the phase ALWAYS ends in [block]:
     if our signal arrived during the spin, the pending wake token
     makes [block] return immediately (saving the deschedule/resume
     pair); otherwise we sleep as the fixed condition does. Skipping
     [block] would leak the token into our next unrelated block. *)
  let budget = Attribute.get t.spin_ns in
  if budget > 0 then begin
    let seq0 = Ops.read t.signal_seq in
    (* Fused hint poll: sequence read plus the gap while unchanged; the
       budget-exhausted exit pays the loop-condition read as before. *)
    let rec poll spent =
      if spent < budget then begin
        if Ops.read_hint ~gap_ns:probe_gap_ns ~expect:seq0 t.signal_seq = seq0 then
          poll (spent + probe_gap_ns)
      end
      else ignore (Ops.read t.signal_seq : int)
    in
    poll 0
  end;
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
