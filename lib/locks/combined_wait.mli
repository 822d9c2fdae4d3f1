(** The attribute-driven spin-then-block waiting loop, factored out of
    {!Lock_core} so every lock-like object waits with the same
    machinery: the {!Waiting} attributes (spin count, probe gap,
    Anderson back-off, sleep, timeout) are re-consulted on every probe,
    so reconfigurations take effect for threads already waiting.
    {!Lock_core} drives it for mutex acquisition; {!Rw_lock} for both
    its reader and writer sides. *)

val next_gap : policy:Waiting.t -> int -> int
(** The probe gap after a failed probe: doubled (capped) under
    Anderson back-off, else unchanged. *)

val wait :
  policy:Waiting.t ->
  ?advice:(unit -> int) ->
  since:int ->
  probe:(gap_ns:int -> bool) ->
  sleep:(unit -> unit) ->
  unit ->
  unit
(** Run the waiting loop until the object is acquired. [probe ~gap_ns]
    makes one acquisition attempt and, on success, performs the
    caller's acquisition bookkeeping; on failure it charges the
    caller's per-probe retry overhead (the paper's library-call cost)
    followed by a [gap_ns] back-off wait before returning false — a
    contract shaped so callers can fuse the attempt, the retry and the
    gap into a single [Ops.lock_probe]. [sleep] is the blocking path:
    register, re-check, block until handed the object (it returns
    having acquired). [advice] (default none) returns the owner's
    current advice: 0 none, 1 force spinning, 2 force sleeping.
    [since] anchors the policy's timeout. *)
