module Attribute = Adaptive_core.Attribute

type params = { waiting_threshold : int; n : int; spin_cap : int; sample_period : int }

let default_params = { waiting_threshold = 4; n = 16; spin_cap = 32; sample_period = 2 }

type t = { cap : int; mutable spins : int }

(* The budget starts at [n], clamped into [0, cap], as does the
   spec's initial configuration. *)
let initial p = Int.max 0 (Int.min p.spin_cap p.n)

let create p =
  if p.waiting_threshold < 0 || p.n <= 0 || p.spin_cap <= 0 then
    invalid_arg "Spin_budget.create";
  { cap = p.spin_cap; spins = initial p }

let spins t = t.spins

let mode_of ~cap v =
  if v <= 0 then "pure blocking"
  else if v >= cap then "pure spin"
  else Printf.sprintf "combined(%d)" v

let mode t = mode_of ~cap:t.cap t.spins

let set t v = t.spins <- Int.max 0 (Int.min t.cap v)

(* The paper's step rule, as a pure function of the budget value —
   used to enumerate the reachable configurations and their
   transitions. *)
let step_value ~threshold ~n ~cap spins ~waiting =
  if waiting = 0 then cap
  else if waiting <= threshold then Int.min cap (spins + n)
  else Int.max 0 (spins - (2 * n))

let policy_spec ?(params = default_params) ?name:(spec_name = "adaptive-lock") () =
  let module Spec = Adaptive_core.Policy.Spec in
  let { waiting_threshold = threshold; n; spin_cap = cap; _ } = params in
  let init = initial params in
  (* Reachable-budget closure from [init] under the three regions. *)
  let reps = [ 0; 1; threshold + 1 ] in
  let next v = List.map (fun waiting -> step_value ~threshold ~n ~cap v ~waiting) reps in
  let values = Spec.reachable ~next init in
  let configs =
    List.map (fun v -> { Spec.c_name = mode_of ~cap v; c_value = v }) values
  in
  let cost = Lock_costs.configure_waiting_policy in
  let transitions =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun (c, waiting) ->
            let target = step_value ~threshold ~n ~cap v ~waiting in
            if target = v then None
            else
              Some
                {
                  Spec.t_from = v;
                  t_cond = c;
                  t_target = target;
                  t_label = mode_of ~cap target;
                  t_repeats = 1;
                  t_cost = cost;
                })
          ((Spec.cond 0 ~hi:0, 0)
           :: (if threshold >= 1 then [ (Spec.cond 1 ~hi:threshold, 1) ] else [])
          @ [ (Spec.cond (threshold + 1), threshold + 1) ]))
      values
  in
  {
    Spec.s_name = spec_name;
    s_kind = "lock";
    s_attribute = spec_name ^ ".waiting-policy";
    s_metric = "no-of-waiting-threads";
    s_monotone = Spec.Up_at_low;
    s_configs = configs;
    s_initial = init;
    s_transitions = transitions;
    s_guard = None;
  }

let apply t (policy : Waiting.t) =
  if t.spins >= t.cap then begin
    Attribute.set policy.Waiting.spin_count max_int;
    Attribute.set policy.Waiting.sleep false
  end
  else begin
    Attribute.set policy.Waiting.spin_count t.spins;
    Attribute.set policy.Waiting.sleep true
  end
