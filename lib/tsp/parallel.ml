open Butterfly
open Cthreads

type impl = Centralized | Distributed | Balanced

let impl_name = function
  | Centralized -> "centralized"
  | Distributed -> "distributed"
  | Balanced -> "distributed+LB"

type instance_kind = Uniform of int | Euclidean

type spec = {
  cities : int;
  instance_kind : instance_kind;
  instance_seed : int;
  searchers : int;
  lock_kind : Locks.Lock.kind;
  trace_locks : bool;
  work_unit_ns : int;
  remote_penalty_ns : int;
  queue_op_ns : int;
  prime_with_greedy : bool;
  continuation_depth : int option;
  machine_seed : int;
}

(* The adaptive parameters used for the TSP experiments: with one
   searcher per dedicated processor, blocking never frees useful cpu,
   so the tuned Waiting-Threshold is above the worst-case waiter count
   (the paper stresses that threshold and n are tuned per lock). *)
let tsp_adaptive_params =
  {
    Locks.Spin_budget.waiting_threshold = 12;
    n = 6;
    spin_cap = 64;
    sample_period = 2;
  }

let tsp_adaptive_kind = Locks.Lock.Adaptive tsp_adaptive_params

let default_spec =
  {
    cities = 32;
    instance_kind = Uniform 100;
    instance_seed = 11;
    searchers = 10;
    lock_kind = Locks.Lock.Blocking;
    trace_locks = false;
    work_unit_ns = 8_012;
    remote_penalty_ns = 700;
    queue_op_ns = 12_000;
    prime_with_greedy = true;
    continuation_depth = None;
    machine_seed = 0x5eed;
  }

let instance_of_spec spec =
  match spec.instance_kind with
  | Uniform max_cost -> Instance.generate ~max_cost ~seed:spec.instance_seed spec.cities
  | Euclidean -> Instance.generate_euclidean ~seed:spec.instance_seed spec.cities

type result = {
  impl : impl;
  spec : spec;
  tour_cost : int;
  total_ns : int;
  nodes_expanded : int;
  useless_expansions : int;
  lock_reports : (string * Locks.Lock_stats.t) list;
  adaptations : int;
}

let big = max_int / 4

(* A growable host-side int vector recording the bound of every
   expanded node, so useless expansions can be counted post hoc. *)
module Bounds_log = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let data = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let count_ge t threshold =
    let c = ref 0 in
    for i = 0 to t.len - 1 do
      if t.data.(i) >= threshold then incr c
    done;
    !c
end

let machine_config spec ~processors =
  { Config.default with Config.processors; seed = spec.machine_seed }

let run_sequential spec =
  let inst = instance_of_spec spec in
  let cfg = machine_config spec ~processors:1 in
  let sim = Sched.create cfg in
  let answer = ref ((([] : int list), 0), 0) in
  Sched.run sim (fun () ->
      let on_expand _node work =
        Ops.work ((work * spec.work_unit_ns) + (2 * spec.queue_op_ns))
      in
      let initial =
        if spec.prime_with_greedy then begin
          (* The greedy upper bound costs one sweep of the matrix. *)
          Ops.work (spec.cities * spec.cities * spec.work_unit_ns / 4);
          Some (Instance.nearest_neighbour inst)
        end
        else None
      in
      answer := Lmsk.solve_sequential ?initial ~on_expand inst);
  let (_tour, cost), expanded = !answer in
  (Sched.final_time sim, (cost, expanded))

(* One searcher pool run; the three implementations differ only in the
   strategy closures built in [run]. *)
type strategy = {
  get_work : int -> (Lmsk.node * [ `Local | `Remote ]) option;
  put_work : int -> Lmsk.node list -> unit;
  exchange : int -> Lmsk.node list -> (Lmsk.node * [ `Local | `Remote ]) option;
      (* push children and take the next subproblem in one queue
         visit (one lock cycle per expansion) *)
  read_best : int -> int;
  publish_best : int -> int list -> int -> unit;
  any_work_left : unit -> bool;
}

(* The searcher-pool program itself, separated from machine setup so
   it can also run under the sanitizers ([Analysis.check] owns the
   simulator there). Requires a machine with at least
   [spec.searchers + 1] processors. *)
let pool_body impl spec ~expanded ~bounds_log ~final_cost ~lock_reports () =
  let inst = instance_of_spec spec in
  let p = spec.searchers in
  if p < 1 then invalid_arg "Parallel.pool_body: need at least one searcher";
  begin
      let mk_lock ?(trace = false) ~home name =
        Locks.Lock.create ~name ~trace:(trace && spec.trace_locks) ~home spec.lock_kind
      in
      (* Searcher i runs on processor i+1; node i+1 is its local
         memory. The centralized structures live on searcher 0's
         node. *)
      let node_of i = i + 1 in
      let central = node_of 0 in
      let nqueues = match impl with Centralized -> 1 | Distributed | Balanced -> p in
      let queue_home i = if nqueues = 1 then central else node_of i in
      (* Queue entries carry the node id of the memory holding the
         subproblem's data: expanding data homed elsewhere pays the
         remote penalty (pointers travel through queues, matrices are
         read through the interconnect). *)
      let queue_dummy = (central, Lmsk.root inst) in
      let queues : (int * Lmsk.node) Engine.Pqueue.t array =
        Array.init nqueues (fun _ -> Engine.Pqueue.create ~dummy:queue_dummy ())
      in
      let qlocks =
        Array.init nqueues (fun i ->
            let name = if nqueues = 1 then "qlock" else Printf.sprintf "qlock.%d" i in
            mk_lock ~trace:true ~home:(queue_home i) name)
      in
      let nbest = match impl with Centralized -> 1 | Distributed | Balanced -> p in
      let best_home i = if nbest = 1 then central else node_of i in
      let initial_best =
        if spec.prime_with_greedy then begin
          Ops.work (spec.cities * spec.cities * spec.work_unit_ns / 4);
          Some (Instance.nearest_neighbour inst)
        end
        else None
      in
      let initial_cost = match initial_best with Some (_, c) -> c | None -> big in
      let best_words =
        Array.init nbest (fun i ->
            let w = Ops.alloc1 ~node:(best_home i) () in
            (* Searchers read the best bound without the lock on
               purpose (stale reads only cost pruning precision). *)
            Ops.mark_relaxed_word w;
            Ops.write w initial_cost;
            w)
      in
      let best_locks =
        Array.init nbest (fun i ->
            let name =
              if nbest = 1 then "glob-low-lock" else Printf.sprintf "glob-low-lock.%d" i
            in
            mk_lock ~home:(best_home i) name)
      in
      let glob_act_lock = mk_lock ~trace:true ~home:central "glob-act-lock" in
      let act_word = Ops.alloc1 ~node:central () in
      (* [poll] reads the active count unlocked; only the transition to
         zero matters and that one is rechecked. *)
      Ops.mark_relaxed_word act_word;
      Ops.write act_word p;
      let globlock = mk_lock ~home:central "globlock" in
      let best_tours =
        ref (match initial_best with Some (t, c) -> [ (c, t) ] | None -> [])
      in
      let done_flag = ref false in
      let queue_op () = Cthread.work spec.queue_op_ns in
      let pop_queue qi =
        Locks.Lock_core.lock qlocks.(qi);
        queue_op ();
        let entry = Engine.Pqueue.pop_min queues.(qi) in
        Locks.Lock_core.unlock qlocks.(qi);
        Option.map snd entry
      in
      let push_queue qi entries =
        Locks.Lock_core.lock qlocks.(qi);
        queue_op ();
        List.iter
          (fun ((_, nd) as entry) ->
            Engine.Pqueue.add queues.(qi) ~key:(Lmsk.bound nd) entry)
          entries;
        Locks.Lock_core.unlock qlocks.(qi)
      in
      let exchange_queue qi entries =
        Locks.Lock_core.lock qlocks.(qi);
        queue_op ();
        List.iter
          (fun ((_, nd) as entry) ->
            Engine.Pqueue.add queues.(qi) ~key:(Lmsk.bound nd) entry)
          entries;
        let entry = Engine.Pqueue.pop_min queues.(qi) in
        Locks.Lock_core.unlock qlocks.(qi);
        Option.map snd entry
      in
      let record_tour tour cost =
        Locks.Lock_core.lock globlock;
        best_tours := (cost, tour) :: !best_tours;
        Locks.Lock_core.unlock globlock
      in
      let strategy =
        match impl with
        | Centralized ->
          {
            get_work =
              (fun i ->
                (* The centralized queue stores subproblem data on the
                   central node. *)
                match pop_queue 0 with
                | None -> None
                | Some (_, nd) ->
                  Some (nd, if node_of i = central then `Local else `Remote));
            put_work =
              (fun i nodes -> push_queue 0 (List.map (fun nd -> (node_of i, nd)) nodes));
            exchange =
              (fun i nodes ->
                match
                  exchange_queue 0 (List.map (fun nd -> (node_of i, nd)) nodes)
                with
                | None -> None
                | Some (_, nd) ->
                  Some (nd, if node_of i = central then `Local else `Remote));
            read_best = (fun _ -> Ops.read best_words.(0));
            publish_best =
              (fun _ tour cost ->
                Locks.Lock_core.lock best_locks.(0);
                let improved = cost < Ops.read best_words.(0) in
                if improved then Ops.write best_words.(0) cost;
                Locks.Lock_core.unlock best_locks.(0);
                if improved then record_tour tour cost);
            any_work_left =
              (fun () -> not (Engine.Pqueue.is_empty queues.(0)));
          }
        | Distributed | Balanced ->
          let ring_steal i =
            (* Walk the ring from the next processor, stealing from the
               first non-empty queue. *)
            let rec walk step =
              if step >= p then None
              else begin
                let j = (i + step) mod p in
                if Engine.Pqueue.is_empty queues.(j) then walk (step + 1)
                else
                  match pop_queue j with
                  | Some nd -> Some nd
                  | None -> walk (step + 1)
              end
            in
            walk 1
          in
          let locality_of i (origin, nd) =
            (nd, if origin = node_of i then `Local else `Remote)
          in
          let get_local_or_steal i =
            match pop_queue i with
            | Some entry -> Some (locality_of i entry)
            | None -> Option.map (locality_of i) (ring_steal i)
          in
          let get_work =
            match impl with
            | Balanced ->
              fun i ->
                (* Load balancing: first pull one subproblem from the
                   ring neighbour into the local queue, then take the
                   local best. *)
                let neighbour = (i + 1) mod p in
                (if neighbour <> i && not (Engine.Pqueue.is_empty queues.(neighbour))
                 then
                   (* Only the pointer moves; the subproblem keeps its
                      provenance, so expanding it later still pays the
                      remote accesses. *)
                   match pop_queue neighbour with
                   | Some entry -> push_queue i [ entry ]
                   | None -> ());
                get_local_or_steal i
            | Centralized | Distributed -> get_local_or_steal
          in
          {
            get_work;
            put_work =
              (fun i nodes -> push_queue i (List.map (fun nd -> (node_of i, nd)) nodes));
            exchange =
              (fun i nodes ->
                match
                  exchange_queue i (List.map (fun nd -> (node_of i, nd)) nodes)
                with
                | Some entry -> Some (locality_of i entry)
                | None -> Option.map (locality_of i) (ring_steal i));
            read_best = (fun i -> Ops.read best_words.(i));
            publish_best =
              (fun i tour cost ->
                (* Update the local copy first, then propagate around
                   the ring; windows of inconsistency are the point. *)
                let improved = ref false in
                for step = 0 to p - 1 do
                  let j = (i + step) mod p in
                  Locks.Lock_core.lock best_locks.(j);
                  if cost < Ops.read best_words.(j) then begin
                    Ops.write best_words.(j) cost;
                    if j = i then improved := true
                  end;
                  Locks.Lock_core.unlock best_locks.(j)
                done;
                if !improved then record_tour tour cost);
            any_work_left =
              (fun () ->
                Array.exists (fun q -> not (Engine.Pqueue.is_empty q)) queues);
          }
      in
      let searcher i () =
        (* Bounded depth-continuation: the searcher may keep working on
           the most promising child for up to [continuation_depth]
           successive expansions (sharing the sibling), then returns to
           the shared queue — the queue-visit granularity knob. *)
        let continuation_depth =
          match spec.continuation_depth with
          | Some d -> d
          | None -> (
            (* Per-implementation default, after the paper: the
               centralized queue strictly maintains global ordering;
               the distributed queues are only partially ordered (the
               searchers bias depth-first between queue exchanges). *)
            match impl with
            | Centralized -> 0
            | Distributed | Balanced -> 16)
        in
        let chain = ref 0 in
        let rec work_on nd locality =
          if Lmsk.bound nd >= strategy.read_best i then active ()
          else begin
            let { Lmsk.outcome; work } = Lmsk.expand inst nd in
            let per_unit =
              spec.work_unit_ns
              + (match locality with `Local -> 0 | `Remote -> spec.remote_penalty_ns)
            in
            Cthread.work (work * per_unit);
            incr expanded;
            Bounds_log.add bounds_log (Lmsk.bound nd);
            match outcome with
            | Lmsk.Tour (tour, cost) ->
              if cost < strategy.read_best i then strategy.publish_best i tour cost;
              active ()
            | Lmsk.Children children ->
              let best = strategy.read_best i in
              let keep =
                List.filter (fun c -> Lmsk.bound c < best) children
                |> List.sort (fun a b -> compare (Lmsk.bound a) (Lmsk.bound b))
              in
              (match keep with
              | [] -> active ()
              | first :: rest when !chain < continuation_depth ->
                incr chain;
                if rest <> [] then strategy.put_work i rest;
                (* The continued child was just created here: local. *)
                work_on first `Local
              | keep -> (
                (* Share the children and take the next subproblem in
                   one queue visit. *)
                chain := 0;
                match strategy.exchange i keep with
                | Some (nd, locality) -> work_on nd locality
                | None -> idle ()))
          end
        and active () =
          chain := 0;
          match strategy.get_work i with
          | Some (nd, locality) -> work_on nd locality
          | None -> idle ()
        and idle () =
          Locks.Lock_core.lock glob_act_lock;
          Ops.write act_word (Ops.read act_word - 1);
          Locks.Lock_core.unlock glob_act_lock;
          poll ()
        and poll () =
          if !done_flag then ()
          else if strategy.any_work_left () then begin
            Locks.Lock_core.lock glob_act_lock;
            Ops.write act_word (Ops.read act_word + 1);
            Locks.Lock_core.unlock glob_act_lock;
            active ()
          end
          else if Ops.read act_word = 0 then begin
            done_flag := true;
            ()
          end
          else begin
            Cthread.delay 150_000;
            poll ()
          end
        in
        active ()
      in
      (* Seed the pool with the root subproblem and launch. *)
      let root = Lmsk.root inst in
      Engine.Pqueue.add queues.(0) ~key:(Lmsk.bound root) (central, root);
      let threads =
        List.init p (fun i ->
            Cthread.fork ~name:(Printf.sprintf "searcher%d" i) ~proc:(node_of i)
              (searcher i))
      in
      Cthread.join_all threads;
      (match List.sort compare !best_tours with
      | (cost, _) :: _ -> final_cost := cost
      | [] -> ());
      let report name lk = (name, Locks.Lock_core.stats lk) in
      lock_reports :=
        Array.to_list (Array.map (fun lk -> report (Locks.Lock_core.name lk) lk) qlocks)
        @ Array.to_list
            (Array.map (fun lk -> report (Locks.Lock_core.name lk) lk) best_locks)
        @ [ report "glob-act-lock" glob_act_lock; report "globlock" globlock ]
  end

let scenario ?(impl = Centralized) spec () =
  pool_body impl spec ~expanded:(ref 0) ~bounds_log:(Bounds_log.create ())
    ~final_cost:(ref big) ~lock_reports:(ref []) ()

let run impl spec =
  let p = spec.searchers in
  if p < 1 then invalid_arg "Parallel.run: need at least one searcher";
  let cfg = machine_config spec ~processors:(p + 1) in
  let sim = Sched.create cfg in
  let expanded = ref 0 in
  let bounds_log = Bounds_log.create () in
  let final_cost = ref big in
  let lock_reports = ref [] in
  Sched.run sim (pool_body impl spec ~expanded ~bounds_log ~final_cost ~lock_reports);
  let adaptations =
    List.fold_left
      (fun acc (_, s) -> acc + Locks.Lock_stats.reconfigurations s)
      0 !lock_reports
  in
  {
    impl;
    spec;
    tour_cost = !final_cost;
    total_ns = Sched.final_time sim;
    nodes_expanded = !expanded;
    useless_expansions = Bounds_log.count_ge bounds_log !final_cost;
    lock_reports = !lock_reports;
    adaptations;
  }
