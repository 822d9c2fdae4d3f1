module Attribute = Adaptive_core.Attribute

type t = { threshold : int; n : int; cap : int; init : int; mutable spins : int }

let create ~threshold ~n ~cap ~init =
  if threshold < 0 || n <= 0 || cap <= 0 then invalid_arg "Spin_budget.create";
  let init = Int.max 0 (Int.min cap init) in
  { threshold; n; cap; init; spins = init }

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

let spec ?name:(spec_name = "adaptive-lock") ~threshold ~n ~cap ~init ()
    =
  let module Spec = Adaptive_core.Policy.Spec in
  let init = Int.max 0 (Int.min cap init) in
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

let spec_of ?name t =
  spec ?name ~threshold:t.threshold ~n:t.n ~cap:t.cap ~init:t.init ()

let apply t (policy : Waiting.t) =
  if t.spins >= t.cap then begin
    Attribute.set policy.Waiting.spin_count max_int;
    Attribute.set policy.Waiting.sleep false
  end
  else begin
    Attribute.set policy.Waiting.spin_count t.spins;
    Attribute.set policy.Waiting.sleep true
  end
