open Butterfly
open Cthreads

type impl = Centralized | Distributed | Balanced

let impl_name = function
  | Centralized -> "centralized"
  | Distributed -> "distributed"
  | Balanced -> "distributed+LB"

type spec = {
  cities : int;
  instance_seed : int;
  searchers : int;
  lock_kind : Locks.Lock.kind;
  trace_locks : bool;
  work_unit_ns : int;
}

(* The model's fixed decisions (DESIGN §3b): extra ns per work unit
   when the expanded subproblem's data lives on a remote node, the
   cost of one queue manipulation, and the simulated machine's seed. *)
let remote_penalty_ns = 700
let queue_op_ns = 12_000
let machine_seed = 0x5eed

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
    instance_seed = 11;
    searchers = 10;
    lock_kind = Locks.Lock.Blocking;
    trace_locks = false;
    work_unit_ns = 8_012;
  }

let instance_of_spec spec = Instance.generate ~seed:spec.instance_seed spec.cities

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

let machine_config ~processors = { Config.default with Config.processors; seed = machine_seed }

(* A pool's machine: searcher i runs on processor i+1. *)
let pool_machine spec =
  if spec.searchers < 1 then invalid_arg "Parallel: need at least one searcher";
  machine_config ~processors:(spec.searchers + 1)

(* Every run starts from a nearest-neighbour tour as its best value
   (standard branch-and-bound practice: it keeps the distributed
   versions' pre-first-tour junk from dominating); the greedy bound
   costs one sweep of the matrix. *)
let greedy spec inst =
  Ops.work (spec.cities * spec.cities * spec.work_unit_ns / 4);
  Instance.nearest_neighbour inst

let run_sequential spec =
  let inst = instance_of_spec spec in
  let sim = Sched.create (machine_config ~processors:1) in
  let (_tour, cost), expanded =
    Sched.run sim (fun () ->
        let on_expand _node work =
          Ops.work ((work * spec.work_unit_ns) + (2 * queue_op_ns))
        in
        let initial = greedy spec inst in
        Lmsk.solve_sequential ~initial ~on_expand inst)
  in
  (Sched.final_time sim, (cost, expanded))

(* The searcher-pool program itself, separated from machine setup so
   it can also run under the sanitizers ([Analysis.check] owns the
   simulator there); runs on [pool_machine spec]. Returns the run's
   result but for [total_ns], the machine's final time, which [run]
   stamps.

   The three implementations are one pool whose placement is data: it
   keeps [copies] work queues and [copies] best-value copies, one
   central copy of each or one per searcher, and searcher [i] uses
   copy [copy_of i]. Searcher i runs on processor i+1; node i+1 is its
   local memory. A single copy lives on searcher 0's node. *)
let pool_body impl spec () =
  let inst = instance_of_spec spec in
  let p = spec.searchers in
  let mk_lock ?(trace = false) ~home name =
    Locks.Lock.create ~name ~trace:(trace && spec.trace_locks) ~home spec.lock_kind
  in
  let node_of i = i + 1 in
  let central = node_of 0 in
  let copies = match impl with Centralized -> 1 | Distributed | Balanced -> p in
  let copy_of i = if copies = 1 then 0 else i in
  let home c = if copies = 1 then central else node_of c in
  let copy_name base c = if copies = 1 then base else Printf.sprintf "%s.%d" base c in
  (* Queue entries carry the node id of the memory holding the
     subproblem's data: the home of the copy it was queued on (a
     single copy's entries live on the central node). Expanding data
     homed elsewhere pays the remote penalty (pointers travel through
     queues, matrices are read through the interconnect). *)
  let root = Lmsk.root inst in
  let queues : (int * Lmsk.node) Engine.Pqueue.t array =
    Array.init copies (fun _ -> Engine.Pqueue.create ~dummy:(central, root) ())
  in
  let qlocks =
    Array.init copies (fun c -> mk_lock ~trace:true ~home:(home c) (copy_name "qlock" c))
  in
  let greedy_tour, greedy_cost = greedy spec inst in
  let best_words =
    Array.init copies (fun c ->
        let w = Ops.alloc1 ~node:(home c) () in
        (* Searchers read the best bound without the lock on purpose
           (stale reads only cost pruning precision). *)
        Ops.mark_relaxed_word w;
        Ops.write w greedy_cost;
        w)
  in
  let best_locks =
    Array.init copies (fun c -> mk_lock ~home:(home c) (copy_name "glob-low-lock" c))
  in
  let glob_act_lock = mk_lock ~trace:true ~home:central "glob-act-lock" in
  let act_word = Ops.alloc1 ~node:central () in
  (* [poll] reads the active count unlocked; only the transition to
     zero matters and that one is rechecked. *)
  Ops.mark_relaxed_word act_word;
  Ops.write act_word p;
  let globlock = mk_lock ~home:central "globlock" in
  let best_tours = ref [ (greedy_cost, greedy_tour) ] in
  let done_flag = ref false in
  let expanded = ref 0 in
  let bounds_log = Bounds_log.create () in
  (* One visit to queue [c]: push [entries], then pop the best entry
     if [take]. *)
  let visit c entries ~take =
    Locks.Lock_core.lock qlocks.(c);
    Cthread.work queue_op_ns;
    List.iter
      (fun ((_, nd) as entry) -> Engine.Pqueue.add queues.(c) ~key:(Lmsk.bound nd) entry)
      entries;
    let entry = if take then Engine.Pqueue.pop_min queues.(c) else None in
    Locks.Lock_core.unlock qlocks.(c);
    Option.map snd entry
  in
  let locality i (origin, nd) = (nd, if origin = node_of i then `Local else `Remote) in
  (* Walk the ring from the next copy, stealing from the first
     non-empty queue; a single copy has nothing to steal from. *)
  let ring_steal c =
    let rec walk step =
      if step >= copies then None
      else begin
        let j = (c + step) mod copies in
        if Engine.Pqueue.is_empty queues.(j) then walk (step + 1)
        else match visit j [] ~take:true with Some e -> Some e | None -> walk (step + 1)
      end
    in
    walk 1
  in
  let own i nodes = List.map (fun nd -> (home (copy_of i), nd)) nodes in
  (* Push the children and take the next subproblem in one queue
     visit (one lock cycle per expansion), stealing when empty. *)
  let exchange i nodes =
    let c = copy_of i in
    let entry =
      match visit c (own i nodes) ~take:true with Some e -> Some e | None -> ring_steal c
    in
    Option.map (locality i) entry
  in
  let get_work i =
    let c = copy_of i in
    (if impl = Balanced then
       (* Load balancing: first pull one subproblem from the ring
          neighbour into the local queue. Only the pointer moves; the
          subproblem keeps its provenance, so expanding it later still
          pays the remote accesses. *)
       let neighbour = (c + 1) mod copies in
       if neighbour <> c && not (Engine.Pqueue.is_empty queues.(neighbour)) then
         match visit neighbour [] ~take:true with
         | Some entry -> ignore (visit c [ entry ] ~take:false)
         | None -> ());
    exchange i []
  in
  let put_work i nodes = ignore (visit (copy_of i) (own i nodes) ~take:false) in
  let read_best i = Ops.read best_words.(copy_of i) in
  (* Update the searcher's own copy first, then propagate around the
     ring; windows of inconsistency are the point. *)
  let publish_best i tour cost =
    let c = copy_of i in
    let improved = ref false in
    for step = 0 to copies - 1 do
      let j = (c + step) mod copies in
      Locks.Lock_core.lock best_locks.(j);
      if cost < Ops.read best_words.(j) then begin
        Ops.write best_words.(j) cost;
        if j = c then improved := true
      end;
      Locks.Lock_core.unlock best_locks.(j)
    done;
    if !improved then begin
      Locks.Lock_core.lock globlock;
      best_tours := (cost, tour) :: !best_tours;
      Locks.Lock_core.unlock globlock
    end
  in
  let any_work_left () = Array.exists (fun q -> not (Engine.Pqueue.is_empty q)) queues in
  (* Bounded depth-continuation (DESIGN §3b): a searcher may keep
     working on the most promising child for this many successive
     expansions (sharing the siblings) before it must exchange with
     the shared queue. The centralized queue strictly maintains global
     ordering; the distributed queues are only partially ordered. *)
  let continuation_depth = match impl with Centralized -> 0 | Distributed | Balanced -> 16 in
  let searcher i () =
    let chain = ref 0 in
    let rec work_on nd locality =
      if Lmsk.bound nd >= read_best i then active ()
      else begin
        let { Lmsk.outcome; work } = Lmsk.expand inst nd in
        let per_unit =
          spec.work_unit_ns
          + (match locality with `Local -> 0 | `Remote -> remote_penalty_ns)
        in
        Cthread.work (work * per_unit);
        incr expanded;
        Bounds_log.add bounds_log (Lmsk.bound nd);
        match outcome with
        | Lmsk.Tour (tour, cost) ->
          if cost < read_best i then publish_best i tour cost;
          active ()
        | Lmsk.Children children ->
          let best = read_best i in
          let keep =
            List.filter (fun c -> Lmsk.bound c < best) children
            |> List.sort (fun a b -> compare (Lmsk.bound a) (Lmsk.bound b))
          in
          (match keep with
          | [] -> active ()
          | first :: rest when !chain < continuation_depth ->
            incr chain;
            if rest <> [] then put_work i rest;
            (* The continued child was just created here: local. *)
            work_on first `Local
          | keep -> (
            chain := 0;
            match exchange i keep with
            | Some (nd, locality) -> work_on nd locality
            | None -> idle ()))
      end
    and active () =
      chain := 0;
      match get_work i with
      | Some (nd, locality) -> work_on nd locality
      | None -> idle ()
    and idle () =
      Locks.Lock_core.lock glob_act_lock;
      Ops.write act_word (Ops.read act_word - 1);
      Locks.Lock_core.unlock glob_act_lock;
      poll ()
    and poll () =
      if !done_flag then ()
      else if any_work_left () then begin
        Locks.Lock_core.lock glob_act_lock;
        Ops.write act_word (Ops.read act_word + 1);
        Locks.Lock_core.unlock glob_act_lock;
        active ()
      end
      else if Ops.read act_word = 0 then done_flag := true
      else begin
        Cthread.delay 150_000;
        poll ()
      end
    in
    active ()
  in
  (* Seed the pool with the root subproblem and launch. *)
  Engine.Pqueue.add queues.(0) ~key:(Lmsk.bound root) (central, root);
  let threads =
    List.init p (fun i ->
        Cthread.fork ~name:(Printf.sprintf "searcher%d" i) ~proc:(node_of i) (searcher i))
  in
  Cthread.join_all threads;
  let tour_cost = match List.sort compare !best_tours with (cost, _) :: _ -> cost | [] -> big in
  let report lk = (Locks.Lock_core.name lk, Locks.Lock_core.stats lk) in
  let lock_reports =
    List.map report
      (Array.to_list qlocks @ Array.to_list best_locks @ [ glob_act_lock; globlock ])
  in
  {
    impl;
    spec;
    tour_cost;
    total_ns = 0;
    nodes_expanded = !expanded;
    useless_expansions = Bounds_log.count_ge bounds_log tour_cost;
    lock_reports;
    adaptations =
      List.fold_left (fun acc (_, s) -> acc + Locks.Lock_stats.reconfigurations s) 0 lock_reports;
  }

let scenario ~impl spec = (pool_machine spec, fun () -> ignore (pool_body impl spec ()))

let run impl spec =
  let sim = Sched.create (pool_machine spec) in
  let r = Sched.run sim (pool_body impl spec) in
  { r with total_ns = Sched.final_time sim }
