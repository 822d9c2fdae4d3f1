(** The attribute-driven spin-then-block waiting loop, factored out of
    {!Lock_core} so every lock-like object waits with the same
    machinery: the {!Waiting} attributes (spin count, probe gap,
    Anderson back-off, sleep, timeout) are re-consulted on every probe,
    so reconfigurations take effect for threads already waiting.
    {!Lock_core} drives it for mutex acquisition; {!Rw_lock} for both
    its reader and writer sides. *)

val wait :
  policy:Waiting.t ->
  ?advice:(unit -> int) ->
  ?until:int ->
  since:int ->
  probe:(gap_ns:int -> until:int -> Butterfly.Ops.probe_result) ->
  sleep:(unit -> unit) ->
  unit ->
  bool
(** Run the waiting loop until the object is acquired (true) or a
    probe reports the deadline [until] expired (false). [probe ~gap_ns
    ~until] makes one acquisition attempt and, on success, performs
    the caller's acquisition bookkeeping and answers [Probe_acquired];
    on failure it either answers [Probe_expired], when virtual time
    has reached [until], or charges the caller's per-probe retry
    overhead (the paper's library-call cost) followed by a [gap_ns]
    back-off wait and answers [Probe_retrying] — a contract shaped so
    callers can fuse the attempt, the deadline check, the retry and
    the gap into a single [Ops.lock_probe_timed]. Without [until] the
    probes get [max_int], which never arrives. [sleep] is the blocking
    path: register, re-check, block until handed the object (it
    returns having acquired). A loop given [until] never sleeps, since
    nothing could wake a sleeper at its deadline, and consults neither
    the advice nor the spin, sleep and timeout attributes. [advice]
    (default none) returns the owner's current advice: 0 none, 1 force
    spinning, 2 force sleeping. [since] anchors the policy's
    timeout. *)
