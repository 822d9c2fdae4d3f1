type t = {
  stats_name : string;
  mutable lock_calls : int;
  mutable unlock_calls : int;
  mutable contended : int;
  mutable acquired : int;
  mutable spin_probes : int;
  mutable blocks : int;
  mutable handoffs : int;
  mutable reconfigurations : int;
  mutable timeouts : int;
  mutable total_wait_ns : int;
  mutable max_wait_ns : int;
  wait_histogram : Repro_stats.Histogram.t;
  trace : Engine.Series.t option;
}

let create ?(trace = false) name =
  {
    stats_name = name;
    lock_calls = 0;
    unlock_calls = 0;
    contended = 0;
    acquired = 0;
    spin_probes = 0;
    blocks = 0;
    handoffs = 0;
    reconfigurations = 0;
    timeouts = 0;
    total_wait_ns = 0;
    max_wait_ns = 0;
    wait_histogram = Repro_stats.Histogram.create ();
    trace = (if trace then Some (Engine.Series.create ~name ()) else None);
  }

let on_lock t = t.lock_calls <- t.lock_calls + 1
let on_contended t = t.contended <- t.contended + 1

let on_acquired t ~wait_ns =
  t.acquired <- t.acquired + 1;
  t.total_wait_ns <- t.total_wait_ns + wait_ns;
  if wait_ns > 0 then Repro_stats.Histogram.add t.wait_histogram wait_ns;
  if wait_ns > t.max_wait_ns then t.max_wait_ns <- wait_ns

let on_unlock t = t.unlock_calls <- t.unlock_calls + 1
let on_spin_probe t = t.spin_probes <- t.spin_probes + 1
let on_block t = t.blocks <- t.blocks + 1
let on_handoff t = t.handoffs <- t.handoffs + 1
let on_reconfigure t = t.reconfigurations <- t.reconfigurations + 1
let on_timeout t = t.timeouts <- t.timeouts + 1

let record_waiting t ~now ~waiting =
  match t.trace with
  | Some series -> Engine.Series.add series ~t:now ~v:(float_of_int waiting)
  | None -> ()

let lock_calls t = t.lock_calls
let unlock_calls t = t.unlock_calls
let contended t = t.contended
let acquired t = t.acquired
let spin_probes t = t.spin_probes
let blocks t = t.blocks
let handoffs t = t.handoffs
let reconfigurations t = t.reconfigurations
let timeouts t = t.timeouts
let max_wait_ns t = t.max_wait_ns

let mean_wait_ns t =
  if t.contended = 0 then 0.0 else float_of_int t.total_wait_ns /. float_of_int t.contended

let contention_ratio t =
  if t.lock_calls = 0 then 0.0 else float_of_int t.contended /. float_of_int t.lock_calls

let trace t = t.trace
let wait_histogram t = t.wait_histogram

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: %d locks (%d contended, %.1f%%), %d spins, %d blocks, %d handoffs, %d \
     reconfigs, mean wait %.1fus, max wait %.1fus@]"
    t.stats_name t.lock_calls t.contended
    (100.0 *. contention_ratio t)
    t.spin_probes t.blocks t.handoffs t.reconfigurations
    (mean_wait_ns t /. 1000.0)
    (float_of_int t.max_wait_ns /. 1000.0)
