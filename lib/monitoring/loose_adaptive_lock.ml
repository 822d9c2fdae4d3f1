open Butterfly
module Adaptive = Adaptive_core.Adaptive
module Sensor = Adaptive_core.Sensor

type t = {
  core : Locks.Lock_core.t;
  ring : (int * int) Ring_buffer.t;
  monitor : (int * int) Monitor_thread.t;
  budget : Locks.Spin_budget.t;
  loop : Adaptive.t;
  mutable unlocks_until_sample : int;
}

let name = "loose-adaptive-lock"
let params = Locks.Spin_budget.default_params

let create ?poll_interval_ns ~home ~monitor_proc () =
  let waiting = Locks.Waiting.combined ~node:home ~spins:params.n () in
  let core =
    Locks.Lock_core.create ~name ~home
      ~impl:(Locks.Lock_core.Central (waiting, Locks.Lock_costs.reconfigurable)) ()
  in
  let ring = Ring_buffer.create ~home () in
  let budget = Locks.Spin_budget.create params in
  (* The policy is the [simple-adapt] spec the closely-coupled lock
     runs; only the [apply] differs. It steps the budget (which tracks
     the policy's intent even when the reconfiguration is lost), then
     takes the path of an external agent: the monitor thread must own
     the attributes to reconfigure them. *)
  let loop =
    Adaptive.create ~spec:(Locks.Spin_budget.policy_spec ~params ~name ()) ~home
      ~sensor:
        (Sensor.make ~overhead_instrs:40 (fun () -> Locks.Lock_core.waiting_now core))
      ~read:(fun () -> Locks.Spin_budget.spins budget)
      ~apply:(fun v ->
        Locks.Spin_budget.set budget v;
        if Locks.Lock_core.acquire_ownership core then begin
          Locks.Spin_budget.apply budget (Locks.Lock_core.policy core);
          Locks.Lock_stats.on_reconfigure (Locks.Lock_core.stats core);
          Locks.Lock_core.release_ownership core;
          true
        end
        else false (* lost the ownership race: nothing changed, don't count it *))
  in
  (* The loosely-coupled feedback path: the monitor thread drains the
     ring and feeds each (possibly stale) observation to the loop. *)
  let monitor =
    Monitor_thread.start_timestamped ~name:(name ^ ".monitor") ?poll_interval_ns
      ~proc:monitor_proc ~ring
      ~deliver:(fun waiting -> ignore (Adaptive.feed loop waiting))
      ()
  in
  {
    core;
    ring;
    monitor;
    budget;
    loop;
    unlocks_until_sample = params.sample_period;
  }

let lock t = Locks.Lock_core.lock t.core

let unlock t =
  Locks.Lock_core.unlock t.core;
  t.unlocks_until_sample <- t.unlocks_until_sample - 1;
  if t.unlocks_until_sample <= 0 then begin
    t.unlocks_until_sample <- params.sample_period;
    Ring_buffer.publish t.ring (Ops.now (), Locks.Lock_core.waiting_now t.core)
  end

let shutdown t = Monitor_thread.stop t.monitor
let adaptations t = Adaptive.adaptations t.loop
let max_lag_ns t = Monitor_thread.max_lag_ns t.monitor
let mode t = Locks.Spin_budget.mode t.budget
