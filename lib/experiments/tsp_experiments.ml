type table = {
  impl : Tsp.Parallel.impl;
  sequential_ms : float;
  blocking_ms : float;
  adaptive_ms : float;
  improvement_pct : float;
  speedup_blocking : float;
  speedup_adaptive : float;
  blocking_result : Tsp.Parallel.result;
  adaptive_result : Tsp.Parallel.result;
}

type t = {
  spec : Tsp.Parallel.spec;
  sequential_ns : int;
  sequential_cost : int;
  sequential_nodes : int;
  tables : table list;
}

let ms ns = float_of_int ns /. 1_000_000.0

let run_all ?spec ?domains () =
  let spec =
    match spec with Some s -> s | None -> Tsp.Parallel.default_spec
  in
  let spec = { spec with Tsp.Parallel.trace_locks = true } in
  let impls = [ Tsp.Parallel.Centralized; Tsp.Parallel.Distributed; Tsp.Parallel.Balanced ] in
  (* Seven independent machines: the sequential reference plus one run
     per (implementation, lock kind); fan them across domains and
     reassemble in the fixed order. *)
  let tasks =
    `Sequential
    :: List.concat_map
         (fun impl ->
           [
             `Pool (impl, Locks.Lock.Blocking);
             `Pool (impl, Tsp.Parallel.tsp_adaptive_kind);
           ])
         impls
  in
  let results =
    Engine.Runner.map ?domains
      (function
        | `Sequential -> `Seq_done (Tsp.Parallel.run_sequential spec)
        | `Pool (impl, lock_kind) ->
          `Pool_done (Tsp.Parallel.run impl { spec with Tsp.Parallel.lock_kind }))
      tasks
  in
  let sequential_ns, (sequential_cost, sequential_nodes) =
    match List.hd results with `Seq_done r -> r | `Pool_done _ -> assert false
  in
  let pool_results =
    List.filter_map (function `Pool_done r -> Some r | `Seq_done _ -> None) results
  in
  let one impl blocking_result adaptive_result =
    let b = blocking_result.Tsp.Parallel.total_ns in
    let a = adaptive_result.Tsp.Parallel.total_ns in
    {
      impl;
      sequential_ms = ms sequential_ns;
      blocking_ms = ms b;
      adaptive_ms = ms a;
      improvement_pct = 100.0 *. (1.0 -. (float_of_int a /. float_of_int b));
      speedup_blocking = float_of_int sequential_ns /. float_of_int b;
      speedup_adaptive = float_of_int sequential_ns /. float_of_int a;
      blocking_result;
      adaptive_result;
    }
  in
  let rec tables impls results =
    match (impls, results) with
    | [], [] -> []
    | impl :: impls, blocking :: adaptive :: rest ->
      one impl blocking adaptive :: tables impls rest
    | _ -> assert false
  in
  {
    spec;
    sequential_ns;
    sequential_cost;
    sequential_nodes;
    tables = tables impls pool_results;
  }

let table t impl = List.find (fun row -> row.impl = impl) t.tables

(* For the distributed implementations the queue locks are
   per-processor; the figure plots the busiest one. *)
let representative_qlock reports =
  let qlocks =
    List.filter (fun (name, _) -> String.length name >= 5 && String.sub name 0 5 = "qlock") reports
  in
  let busiest =
    List.fold_left
      (fun acc (name, s) ->
        match acc with
        | Some (_, best) when Locks.Lock_stats.contended best >= Locks.Lock_stats.contended s
          -> acc
        | _ -> Some (name, s))
      None qlocks
  in
  Option.map snd busiest

let figure t ~impl ~lock =
  let row = table t impl in
  let reports = row.blocking_result.Tsp.Parallel.lock_reports in
  let stats =
    if lock = "qlock" then representative_qlock reports
    else List.assoc_opt lock reports
  in
  match stats with None -> None | Some s -> Locks.Lock_stats.trace s

let figure_description ~impl ~lock =
  Printf.sprintf "Locking Pattern for \"%s\" in the %s Implementation"
    (String.uppercase_ascii lock)
    (String.capitalize_ascii (Tsp.Parallel.impl_name impl))

let all_figures =
  [
    (4, Tsp.Parallel.Centralized, "qlock");
    (5, Tsp.Parallel.Centralized, "glob-act-lock");
    (6, Tsp.Parallel.Distributed, "qlock");
    (7, Tsp.Parallel.Distributed, "glob-act-lock");
    (8, Tsp.Parallel.Balanced, "qlock");
    (9, Tsp.Parallel.Balanced, "glob-act-lock");
  ]
