module Sensor = Adaptive_core.Sensor
module Adaptive = Adaptive_core.Adaptive

type params = { waiting_threshold : int; n : int; spin_cap : int; sample_period : int }

let default_params = { waiting_threshold = 4; n = 16; spin_cap = 32; sample_period = 2 }

type t = {
  core : Lock_core.t;
  loop : Adaptive.t;
  budget : Spin_budget.t;
}

(* The paper's [simple-adapt] as a declarative spec: what the static
   policy checker inspects and what [create] runs as its policy, so
   the two cannot drift. *)
let policy_spec ?(params = default_params) ?name () =
  Spin_budget.spec ?name ~threshold:params.waiting_threshold ~n:params.n
    ~cap:params.spin_cap ~init:params.n ()

let create ?name ?trace ?sched ?(params = default_params) ~home () =
  let name = match name with Some n -> n | None -> "adaptive-lock" in
  let waiting = Waiting.combined ~node:home ~spins:params.n () in
  let core =
    Lock_core.create ~name ?trace ?sched ~home
      ~impl:(Lock_core.Central (waiting, Lock_costs.reconfigurable)) ()
  in
  let sensor =
    Sensor.make ~period:params.sample_period ~overhead_instrs:40 (fun () ->
        Lock_core.waiting_now core)
  in
  let budget =
    Spin_budget.create ~threshold:params.waiting_threshold ~n:params.n ~cap:params.spin_cap
      ~init:params.n
  in
  let loop =
    Adaptive.create
      ~spec:(policy_spec ~params ~name ())
      ~home ~sensor
      ~read:(fun () -> Spin_budget.spins budget)
      ~apply:(fun v ->
        Spin_budget.set budget v;
        Spin_budget.apply budget (Lock_core.policy core);
        Lock_stats.on_reconfigure (Lock_core.stats core);
        true)
  in
  { core; loop; budget }

let lock t = Lock_core.lock t.core

let unlock t =
  Lock_core.unlock t.core;
  ignore (Adaptive.tick t.loop)

let stats t = Lock_core.stats t.core
let core t = t.core
let feedback t = t.loop
let mode t = Spin_budget.mode t.budget
let adaptations t = Adaptive.adaptations t.loop
let samples t = Adaptive.samples t.loop
