type kind =
  | Spin
  | Backoff
  | Blocking
  | Combined of int
  | Conditional of int
  | Advisory
  | Reconfigurable
  | Adaptive of Spin_budget.params

let kind_name = function
  | Spin -> "spin"
  | Backoff -> "spin-with-backoff"
  | Blocking -> "blocking"
  | Combined k -> Printf.sprintf "combined(%d)" k
  | Conditional ns -> Printf.sprintf "conditional(%dns)" ns
  | Advisory -> "advisory"
  | Reconfigurable -> "reconfigurable"
  | Adaptive _ -> "adaptive"

let adaptive_default = Adaptive Spin_budget.default_params

let create ?name ?trace ?sched ~home kind =
  let name = match name with Some n -> n | None -> kind_name kind in
  let make ?advisory impl = Lock_core.create ~name ?trace ?sched ?advisory ~home ~impl () in
  let static ?advisory policy costs =
    Waiting.freeze policy;
    make ?advisory (Lock_core.Central (policy, costs))
  in
  match kind with
  | Spin -> static (Waiting.pure_spin ~node:home ()) Lock_costs.spin
  | Backoff -> static (Waiting.backoff_spin ~node:home ()) Lock_costs.backoff
  | Blocking -> static (Waiting.pure_sleep ~node:home ()) Lock_costs.blocking
  | Combined k -> static (Waiting.combined ~node:home ~spins:k ()) Lock_costs.combined
  | Conditional ns ->
    static (Waiting.conditional ~node:home ~timeout_ns:ns ()) Lock_costs.combined
  | Advisory ->
    (* Advice may force sleeping, so the unlock path must check the
       queue: use the combined profile with a spin-leaning policy. *)
    static ~advisory:true (Waiting.combined ~node:home ~spins:8 ()) Lock_costs.combined
  | Reconfigurable ->
    make
      (Lock_core.Central (Waiting.combined ~node:home ~spins:1 (), Lock_costs.reconfigurable))
  | Adaptive params -> make (Lock_core.Adaptive params)
