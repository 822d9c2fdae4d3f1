(* A second instantiation of the adaptive-object model (beyond locks):
   a shared work queue whose internal discipline is a mutable
   attribute.

   - FIFO discipline: O(1) operations, no ordering (cheap).
   - Best-first discipline: ordered by task value, costlier per
     operation, but under backlog the valuable tasks get served first.

   The built-in monitor senses the backlog length (sampling every 4th
   dequeue); the adaptation policy switches the discipline attribute:
   deep backlog -> best-first (ordering pays), shallow backlog -> FIFO
   (overhead does not). This mirrors the paper's claim that the
   adaptive-object structure applies to operating-system abstractions
   generally, not just locks.

   Run with: dune exec examples/adaptive_queue.exe *)

open Butterfly
open Cthreads
module Attribute = Adaptive_core.Attribute
module Sensor = Adaptive_core.Sensor
module Policy = Adaptive_core.Policy
module Adaptive = Adaptive_core.Adaptive

type discipline = Fifo | Best_first

type task = { value : int; work_ns : int }

type queue = {
  mutex : Spin.t;
  tasks : task Queue.t;  (* FIFO backing store *)
  discipline : discipline Attribute.t;
  loop : Adaptive.t;
  mutable served_value_early : int;  (* value served in the first half *)
  mutable served : int;
}

let fifo_op_ns = 6_000
let best_first_op_ns = 22_000

let dequeue q =
  Spin.lock q.mutex;
  let discipline = Attribute.get q.discipline in
  Cthread.work (match discipline with Fifo -> fifo_op_ns | Best_first -> best_first_op_ns);
  let task =
    match discipline with
    | Fifo -> Queue.take_opt q.tasks
    | Best_first ->
      (* Linear scan for the most valuable task (the cost charged
         above models it). *)
      if Queue.is_empty q.tasks then None
      else begin
        let best = Queue.fold (fun acc t -> max acc t.value) min_int q.tasks in
        let rest = Queue.create () in
        let found = ref None in
        Queue.iter
          (fun t ->
            if !found = None && t.value = best then found := Some t else Queue.add t rest)
          q.tasks;
        Queue.clear q.tasks;
        Queue.transfer rest q.tasks;
        !found
      end
  in
  Spin.unlock q.mutex;
  (* Closely-coupled feedback: tick the monitor on every dequeue. *)
  ignore (Adaptive.tick q.loop);
  task

let enqueue q task =
  Spin.lock q.mutex;
  Cthread.work fifo_op_ns;
  Queue.add task q.tasks;
  Spin.unlock q.mutex

(* The adaptation policy as a spec over the discipline attribute
   (fifo = 0, best-first = 1): a deep backlog switches to best-first
   (ordering pays), a shallow one back to FIFO (overhead does not).
   The static baseline declares the same configurations with no
   transitions: still monitored, never adapting. *)
let policy_spec ~adaptive =
  let module Spec = Policy.Spec in
  let switch ~from ~cond ~target ~label =
    {
      Spec.t_from = from;
      t_cond = cond;
      t_target = target;
      t_label = label;
      t_repeats = 1;
      t_cost = Adaptive_core.Cost.reads_writes 1 1;
    }
  in
  {
    Spec.s_name = "adaptive-queue";
    s_kind = "queue";
    s_attribute = "adaptive-queue.discipline";
    s_metric = "backlog";
    s_monotone = Spec.Up_at_high;
    s_configs =
      [ { Spec.c_name = "fifo"; c_value = 0 }; { Spec.c_name = "best-first"; c_value = 1 } ];
    s_initial = 0;
    s_transitions =
      (if adaptive then
         [
           switch ~from:0 ~cond:(Spec.cond 13) ~target:1 ~label:"best-first";
           switch ~from:1 ~cond:(Spec.cond 0 ~hi:3) ~target:0 ~label:"fifo";
         ]
       else []);
    s_guard = None;
  }

let create ~home ~adaptive =
  let mutex = Spin.create ~node:home () in
  let tasks = Queue.create () in
  let discipline = Attribute.make_at ~name:"discipline" ~node:home Fifo in
  let sensor =
    Sensor.make ~period:4 ~overhead_instrs:30 (fun () -> Queue.length tasks)
  in
  let loop =
    Adaptive.create ~spec:(policy_spec ~adaptive) ~home ~sensor
      ~read:(fun () -> match Attribute.get discipline with Fifo -> 0 | Best_first -> 1)
      ~apply:(fun v ->
        Attribute.set discipline (if v = 1 then Best_first else Fifo);
        true)
  in
  { mutex; tasks; discipline; loop; served_value_early = 0; served = 0 }

let run ~adaptive =
  let machine = Sched.create { Config.default with Config.processors = 7 } in
  let early_value, reconfigs, final =
    Sched.run machine (fun () ->
        let q = create ~home:0 ~adaptive in
        let total_tasks = 240 in
        let per_producer = total_tasks / 2 in
        (* Two bursty producers: flood the queue, then trickle. *)
        let producer p =
          Cthread.fork ~name:(Printf.sprintf "producer%d" p) ~proc:(1 + p) (fun () ->
              for i = 1 to per_producer do
                enqueue q { value = Cthread.random 100; work_ns = 45_000 };
                (* Burst for the first half, trickle afterwards. *)
                if i > per_producer / 2 then Cthread.work 150_000 else Cthread.work 1_000
              done)
        in
        let producers = List.init 2 producer in
        let consumer p =
          Cthread.fork ~name:(Printf.sprintf "consumer%d" p) ~proc:(3 + p) (fun () ->
              let finished = ref false in
              while not !finished do
                match dequeue q with
                | Some task ->
                  Cthread.work task.work_ns;
                  q.served <- q.served + 1;
                  if q.served <= total_tasks / 2 then
                    q.served_value_early <- q.served_value_early + task.value
                | None ->
                  if q.served >= total_tasks then finished := true else Cthread.delay 20_000
              done)
        in
        let consumers = List.init 3 consumer in
        Cthread.join_all producers;
        Cthread.join_all consumers;
        ( q.served_value_early,
          Adaptive.log q.loop,
          match Attribute.get q.discipline with Fifo -> "fifo" | Best_first -> "best-first" ))
  in
  (Sched.final_time machine, early_value, reconfigs, final)

let () =
  let fifo_time, fifo_early, _, _ = run ~adaptive:false in
  let ad_time, ad_early, log, final = run ~adaptive:true in
  Printf.printf "static FIFO queue:    %.2f ms, value served in first half = %d\n"
    (float_of_int fifo_time /. 1e6) fifo_early;
  Printf.printf "adaptive queue:       %.2f ms, value served in first half = %d\n"
    (float_of_int ad_time /. 1e6) ad_early;
  Printf.printf "adaptive queue ended as %s; reconfigurations:\n" final;
  List.iter
    (fun (t, label) -> Printf.printf "  %8.2f ms -> %s\n" (float_of_int t /. 1e6) label)
    log;
  if ad_early > fifo_early then
    print_endline "=> under backlog the adaptive queue served more valuable work first"
