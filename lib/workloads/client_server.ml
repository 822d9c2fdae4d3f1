open Butterfly
open Cthreads

type spec = {
  processors : int;
  clients : int;
  requests_per_client : int;
  service_ns : int;
  submit_think_ns : int;
  sched : Locks.Lock_sched.kind;
  handoff_to_server : bool;
  seed : int;
}

let default =
  {
    processors = 8;
    clients = 12;
    requests_per_client = 10;
    service_ns = 15_000;
    submit_think_ns = 5_000;
    sched = Locks.Lock_sched.Fcfs;
    handoff_to_server = false;
    seed = 23;
  }

type result = {
  spec : spec;
  total_ns : int;
  served : int;
  mean_response_ns : float;  (** submit-to-served latency, the headline *)
  max_response_ns : int;
  server_mean_wait_ns : float;
  client_mean_wait_ns : float;
}

let config spec = { Config.default with Config.processors = spec.processors; seed = spec.seed }

(* The workload program itself. Returns the run's result but for
   [total_ns], the machine's final time, which [run] stamps. *)
let body spec () =
  let lk = Locks.Lock.create ~home:0 ~sched:spec.sched Locks.Lock.Blocking in
  (* An open system: clients submit requests at their own pace and
     never wait for replies, so the scheduler's effect on the
     server's lock access is not masked by a closed feedback
     loop. *)
  let requests : int Queue.t = Queue.create () in
  (* each entry is its submission timestamp *)
  let total = spec.clients * spec.requests_per_client in
  let served = ref 0 in
  let response_sum = ref 0 and response_max = ref 0 in
  let server_wait = ref 0 and server_acqs = ref 0 in
  let client_wait = ref 0 and client_acqs = ref 0 in
  let timed_lock acc_wait acc_n =
    let t0 = Cthread.now () in
    Locks.Lock_core.lock lk;
    acc_wait := !acc_wait + (Cthread.now () - t0);
    incr acc_n
  in
  let server_body () =
    while !served < total do
      timed_lock server_wait server_acqs;
      (match Queue.take_opt requests with
      | Some submitted_at ->
        (* Monitor-style server: the request is processed inside
           the critical section, so submitters pile up behind the
           lock and the release policy decides whether the server
           re-enters ahead of them. *)
        Cthread.work spec.service_ns;
        incr served;
        let response = Cthread.now () - submitted_at in
        response_sum := !response_sum + response;
        if response > !response_max then response_max := response
      | None -> ());
      Locks.Lock_core.unlock lk;
      if Queue.is_empty requests && !served < total then Cthread.delay 10_000
    done
  in
  let server = Cthread.fork ~name:"server" ~proc:1 ~prio:10 server_body in
  let client_body i () =
    Cthread.work (1_000 * (i mod 5));
    for r = 1 to spec.requests_per_client do
      Cthread.work spec.submit_think_ns;
      timed_lock client_wait client_acqs;
      ignore r;
      Queue.add (Cthread.now ()) requests;
      if spec.handoff_to_server then Locks.Lock_core.set_successor lk (Cthread.id server);
      Locks.Lock_core.unlock lk
    done
  in
  let clients =
    List.init spec.clients (fun i ->
        let proc = 2 + (i mod (spec.processors - 2)) in
        Cthread.fork ~name:(Printf.sprintf "client%d" i) ~proc ~prio:0 (client_body i))
  in
  Cthread.join_all clients;
  Cthread.join server;
  let mean acc n = if !n = 0 then 0.0 else float_of_int !acc /. float_of_int !n in
  {
    spec;
    total_ns = 0;
    served = !served;
    mean_response_ns = mean response_sum served;
    max_response_ns = !response_max;
    server_mean_wait_ns = mean server_wait server_acqs;
    client_mean_wait_ns = mean client_wait client_acqs;
  }

let scenario spec = (config spec, fun () -> ignore (body spec ()))

let run spec =
  let sim = Sched.create (config spec) in
  let r = Sched.run sim (body spec) in
  { r with total_ns = Sched.final_time sim }

let compare_schedulers ?domains spec =
  let specs =
    [
      (Locks.Lock_sched.Fcfs, { spec with sched = Locks.Lock_sched.Fcfs });
      (Locks.Lock_sched.Priority, { spec with sched = Locks.Lock_sched.Priority });
      ( Locks.Lock_sched.Handoff,
        { spec with sched = Locks.Lock_sched.Handoff; handoff_to_server = true } );
    ]
  in
  Engine.Runner.map ?domains (fun (sched, spec) -> (sched, run spec)) specs
