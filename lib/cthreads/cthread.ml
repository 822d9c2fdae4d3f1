open Butterfly

type t = int

(* Default naming is delegated to the machine (tid-derived), so it
   stays deterministic per simulation and safe when Engine.Runner
   executes many simulations in parallel — a library-global counter
   here would be both racy and order-dependent. *)
let fork ?(name = "") ?proc ?(prio = 0) f = Ops.fork { f; proc; prio; name }

let join = Ops.join
let join_all ts = List.iter join ts
let self = Ops.self
let id t = t
let of_id tid = tid
let yield = Ops.yield
let block = Ops.block
let wakeup = Ops.wakeup
let delay = Ops.delay
let work = Ops.work
let now = Ops.now
let set_priority = Ops.set_priority
let priority = Ops.priority_of
let random = Ops.random
