type kind =
  | Spin
  | Backoff
  | Blocking
  | Combined of int
  | Conditional of int
  | Advisory
  | Reconfigurable
  | Adaptive of Adaptive_lock.params

let kind_name = function
  | Spin -> "spin"
  | Backoff -> "spin-with-backoff"
  | Blocking -> "blocking"
  | Combined k -> Printf.sprintf "combined(%d)" k
  | Conditional ns -> Printf.sprintf "conditional(%dns)" ns
  | Advisory -> "advisory"
  | Reconfigurable -> "reconfigurable"
  | Adaptive _ -> "adaptive"

let adaptive_default = Adaptive Adaptive_lock.default_params

type t = { lock_kind : kind; core : Lock_core.t; adaptive : Adaptive_lock.t option }

let create ?name ?trace ?sched ~home lock_kind =
  let name = match name with Some n -> n | None -> kind_name lock_kind in
  let make ?advisory policy costs =
    Lock_core.create ~name ?trace ?sched ?advisory ~home
      ~impl:(Lock_core.Central (policy, costs)) ()
  in
  let static ?advisory policy costs =
    Waiting.freeze policy;
    make ?advisory policy costs
  in
  let core, adaptive =
    match lock_kind with
    | Spin -> (static (Waiting.pure_spin ~node:home ()) Lock_costs.spin, None)
    | Backoff -> (static (Waiting.backoff_spin ~node:home ()) Lock_costs.backoff, None)
    | Blocking -> (static (Waiting.pure_sleep ~node:home ()) Lock_costs.blocking, None)
    | Combined k ->
      (static (Waiting.combined ~node:home ~spins:k ()) Lock_costs.combined, None)
    | Conditional ns ->
      (static (Waiting.conditional ~node:home ~timeout_ns:ns ()) Lock_costs.combined, None)
    | Advisory ->
      (* Advice may force sleeping, so the unlock path must check the
         queue: use the combined profile with a spin-leaning policy. *)
      ( static ~advisory:true (Waiting.combined ~node:home ~spins:8 ()) Lock_costs.combined,
        None )
    | Reconfigurable ->
      (make (Waiting.combined ~node:home ~spins:1 ()) Lock_costs.reconfigurable, None)
    | Adaptive params ->
      let a = Adaptive_lock.create ~name ?trace ?sched ~params ~home () in
      (Adaptive_lock.core a, Some a)
  in
  { lock_kind; core; adaptive }

let kind t = t.lock_kind
let core t = t.core
let name t = Lock_core.name t.core
let stats t = Lock_core.stats t.core
let lock t = Lock_core.lock t.core
let try_lock t = Lock_core.try_lock t.core

let unlock t =
  match t.adaptive with Some a -> Adaptive_lock.unlock a | None -> Lock_core.unlock t.core

let with_lock t f =
  lock t;
  match f () with
  | v ->
    unlock t;
    v
  | exception e ->
    unlock t;
    raise e

let advise t advice = Lock_core.advise t.core advice
let set_successor t thread = Lock_core.set_successor t.core (Cthreads.Cthread.id thread)
let as_adaptive t = t.adaptive
