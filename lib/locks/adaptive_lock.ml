module Policy = Adaptive_core.Policy
module Sensor = Adaptive_core.Sensor
module Adaptive = Adaptive_core.Adaptive

type params = { waiting_threshold : int; n : int; spin_cap : int; sample_period : int }

let default_params = { waiting_threshold = 4; n = 16; spin_cap = 32; sample_period = 2 }

type t = {
  core : Lock_core.t;
  loop : int Adaptive.t;
  budget : Spin_budget.t;
  guard : Guardrail.t option;
}

(* The guardrail half of the policy spec: clamp observations into
   [0, clamp_max], treat "budget wedged at pure blocking while waiters
   pile past the threshold" as pathological, and fall back to the
   default combined configuration after a streak. *)
let guard_spec ~(params : params) ~(gparams : Guardrail.params) ~init =
  {
    Policy.Spec.g_clamp_lo = 0;
    g_clamp_hi = gparams.Guardrail.clamp_max;
    g_wedge =
      Some
        {
          Policy.Spec.w_configs = [ 0 ];
          w_cond = Policy.Spec.cond (params.waiting_threshold + 1);
        };
    g_limit = gparams.Guardrail.pathological_limit;
    g_cooldown = gparams.Guardrail.cooldown;
    g_fallback = init;
    g_fallback_label = "guardrail-fallback";
    g_fallback_cost = Lock_costs.configure_waiting_policy;
  }

(* The paper's [simple-adapt] (optionally guardrailed) as a
   declarative spec — what the static policy checker inspects and what
   [create] compiles into the running policy, so the two cannot
   drift. *)
let policy_spec ?(params = default_params) ?guardrail ?name ?attribute () =
  let spec =
    Spin_budget.spec ?name ?attribute ~threshold:params.waiting_threshold
      ~n:params.n ~cap:params.spin_cap ~init:params.n ()
  in
  match guardrail with
  | None -> spec
  | Some gparams ->
    {
      spec with
      Policy.Spec.s_guard =
        Some (guard_spec ~params ~gparams ~init:spec.Policy.Spec.s_initial);
    }

(* The [simple-adapt] step as a policy over any spin budget — the
   plumbing Monitoring's loosely-coupled lock uses, which differs from
   this closely-coupled one only in how observations arrive and how
   [apply] reaches the attributes. [apply] reports whether the
   reconfiguration took effect: the external-agent path can lose the
   ownership race (the budget still advances, tracking the policy's
   intent). *)
let budget_policy ~budget ~apply =
  Policy.Spec.compile (Spin_budget.spec_of budget)
    ~read:(fun () -> Spin_budget.spins budget)
    ~apply:(fun v ->
      Spin_budget.set budget v;
      apply ())
    ~metric:(fun (waiting : int) -> waiting)

let create ?name ?trace ?sched ?(params = default_params) ?policy ?guardrail ~home () =
  let name = match name with Some n -> n | None -> "adaptive-lock" in
  let waiting = Waiting.combined ~node:home ~spins:params.n () in
  let core =
    Lock_core.create ~name ?trace ?sched ~home ~policy:waiting
      ~costs:Lock_costs.reconfigurable ()
  in
  let sensor =
    Sensor.make ~name:(name ^ ".no-of-waiting-threads") ~period:params.sample_period
      ~overhead_instrs:40
      (fun () -> Lock_core.waiting_now core)
  in
  let budget =
    Spin_budget.create ~threshold:params.waiting_threshold ~n:params.n ~cap:params.spin_cap
      ~init:params.n
  in
  (* The spec describes the default (possibly guardrailed) simple-adapt
     policy and is exactly what runs; a caller-supplied policy is
     opaque, so no spec — the registry then skips the formal log check
     rather than judging the log against a space it does not follow. A
     guardrail shares its [Guardrail.t]'s streak/cooldown state with
     the compiled policy, so its accessors keep reporting. *)
  let spec, guard, policy =
    match policy with
    | Some p -> (None, None, p)
    | None ->
      let spec = policy_spec ~params ?guardrail ~name () in
      let guard = Option.map (fun params -> Guardrail.create ~params ()) guardrail in
      let policy =
        Policy.Spec.compile spec
          ?guard_state:(Option.map Guardrail.guard guard)
          ~read:(fun () -> Spin_budget.spins budget)
          ~apply:(fun v ->
            Spin_budget.set budget v;
            Spin_budget.apply budget (Lock_core.policy core);
            Lock_stats.on_reconfigure (Lock_core.stats core);
            true)
          ~metric:(fun (waiting : int) -> waiting)
      in
      (Some spec, guard, policy)
  in
  let loop = Adaptive.create ~name ~kind:"lock" ?spec ~home ~sensor ~policy () in
  { core; loop; budget; guard }

let lock t = Lock_core.lock t.core

let unlock t =
  Lock_core.unlock t.core;
  ignore (Adaptive.tick t.loop)

let stats t = Lock_core.stats t.core
let core t = t.core
let feedback t = t.loop
let spins_now t = Spin_budget.spins t.budget
let mode t = Spin_budget.mode t.budget
let adaptations t = Adaptive.adaptations t.loop
let samples t = Adaptive.samples t.loop
let guardrail t = t.guard
