open Butterfly
module Attribute = Adaptive_core.Attribute

(* Exponential back-off cap: keeps Anderson-style gaps bounded. *)
let max_backoff_ns = 2_000_000

let next_gap ~(policy : Waiting.t) gap =
  if Attribute.get policy.Waiting.backoff then Int.min (Int.max (gap * 2) 1) max_backoff_ns
  else gap

(* Whether a waiter that may sleep should now: its spin phase is over
   (or the policy's timeout has passed) and sleeping is enabled, as the
   owner's advice (0 none, 1 force spinning, 2 force sleeping) or the
   attributes say. *)
let sleeps_now ~(policy : Waiting.t) ~advice ~since attempts =
  let advice = advice () in
  let spin_limit =
    if advice = 1 then max_int
    else if advice = 2 then 0
    else Attribute.get policy.Waiting.spin_count
  in
  let sleep_enabled = advice = 2 || Attribute.get policy.Waiting.sleep in
  let timeout = Attribute.get policy.Waiting.timeout_ns in
  let expired = timeout > 0 && Ops.now () >= since + timeout in
  (attempts >= spin_limit || expired) && sleep_enabled

let wait ~(policy : Waiting.t) ?(advice = fun () -> 0) ?until ~since ~probe ~sleep () =
  (* The waiting loop re-consults the mutable attributes (and any
     advice) on every probe, so a reconfiguration takes effect for
     threads already waiting — the closely-coupled behaviour
     adaptation depends on.

     [probe ~gap_ns] makes one acquisition attempt and, on failure,
     charges the retry overhead followed by a [gap_ns] back-off wait
     before returning — which lets callers fuse the whole iteration
     into one [Ops.lock_probe_timed]. The attribute reads stay where
     the pre-fusion loop had them: the back-off doubling is consulted
     after the failed probe's waits complete, the spin/sleep/timeout
     attributes at the top of the next iteration. A loop with a
     deadline never sleeps (nothing could wake a sleeper at its
     deadline), so it skips those reads and the advice; each probe
     checks the deadline ([max_int], a time that never arrives, when
     there is none). *)
  let rec wait_loop attempts gap =
    match until with
    | None when sleeps_now ~policy ~advice ~since attempts ->
      sleep ();
      true
    | _ -> (
      match probe ~gap_ns:gap ~until:(Option.value until ~default:max_int) with
      | Ops.Probe_acquired -> true
      | Ops.Probe_expired -> false
      | Ops.Probe_retrying -> wait_loop (attempts + 1) (next_gap ~policy gap))
  in
  wait_loop 0 (Attribute.get policy.Waiting.delay_ns)
