(** Client-server workload — the lock-scheduler experiment of [MS93].

    An open system: clients submit requests through a lock-protected
    shared queue at their own pace (fire and forget); a single
    high-priority monitor-style server drains the queue, processing
    each request inside the critical section. The lock is contended by
    many low-priority clients and the one server, so the lock's
    {e scheduling} policy decides how quickly the server gets back in:
    with Priority scheduling the server bypasses queued clients (best
    drain rate); with FCFS it requeues behind every submitted client
    (worst); Handoff matches Priority when clients designate the
    server as successor. The paper reports priority best and FCFS
    worst. *)

type spec = {
  processors : int;
  clients : int;
  requests_per_client : int;
  service_ns : int;  (** server processing time per request *)
  submit_think_ns : int;  (** client-side work between submissions *)
  sched : Locks.Lock_sched.kind;
  handoff_to_server : bool;
      (** when true (with Handoff) clients name the server as
          successor on unlock *)
  seed : int;
}

val default : spec

type result = {
  spec : spec;
  total_ns : int;
  served : int;
  mean_response_ns : float;
      (** mean submit-to-served latency — the experiment's headline
          metric: prioritizing the server drains requests promptly *)
  max_response_ns : int;
  server_mean_wait_ns : float;  (** mean lock wait of the server *)
  client_mean_wait_ns : float;
}

val run : spec -> result

val scenario : spec -> Butterfly.Config.t * (unit -> unit)
(** The machine {!run} uses and the workload program as a bare thunk,
    for an externally owned simulator (the sanitizers): same threads
    and lock traffic as {!run}, results discarded. *)

val compare_schedulers :
  ?domains:int ->
  spec ->
  (Locks.Lock_sched.kind * result) list
(** Run the same workload under FCFS, Priority and Handoff. The three
    runs are independent machines and execute in parallel across up to
    [domains] host cores; the result order is fixed. *)
