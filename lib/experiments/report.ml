let std = Format.std_formatter

let fus v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v

let print_lock_table out ~title ~paper rows =
  let tbl =
    Repro_stats.Table.create
      ~headers:
        [ "operation"; "local (us)"; "paper"; "remote (us)"; "paper" ]
  in
  List.iter
    (fun (row : Lock_tables.row) ->
      let reference =
        List.find_opt (fun (p : Paper.lock_op_row) -> p.Paper.lock_name = row.Lock_tables.op) paper
      in
      let p_local, p_remote =
        match reference with
        | Some p -> (p.Paper.local_us, p.Paper.remote_us)
        | None -> (nan, nan)
      in
      Repro_stats.Table.add_row tbl
        [
          row.Lock_tables.op;
          fus row.Lock_tables.local_us;
          fus p_local;
          fus row.Lock_tables.remote_us;
          fus p_remote;
        ])
    rows;
  Format.fprintf out "%s@." (Repro_stats.Table.render ~title tbl)

let print_table4 ?(out = std) ?domains () =
  print_lock_table out ~title:"Table 4: cost of the Lock operation"
    ~paper:Paper.table4 (Lock_tables.table4 ?domains ())

let print_table5 ?(out = std) ?domains () =
  print_lock_table out ~title:"Table 5: cost of the Unlock operation"
    ~paper:Paper.table5 (Lock_tables.table5 ?domains ())

let print_table6 ?(out = std) ?domains () =
  print_lock_table out
    ~title:"Table 6: unlock+lock cycle on a locked lock (static locks)"
    ~paper:Paper.table6 (Lock_tables.table6 ?domains ())

let print_table7 ?(out = std) () =
  print_lock_table out
    ~title:"Table 7: unlock+lock cycle on a locked adaptive lock"
    ~paper:Paper.table7 (Lock_tables.table7 ())

let print_table8 ?(out = std) () =
  print_lock_table out ~title:"Table 8: cost of lock configuration operations"
    ~paper:Paper.table8 (Lock_tables.table8 ())

type emit = name:string -> metrics:(string * float) list -> payload:string -> unit

(* Every artifact-producing section hands its artifact to the caller's
   [emit] hook: the name of its legacy file, a flat metric projection,
   and the exact payload bytes. *)
let deliver ?emit ~name ~metrics payload =
  Option.iter (fun f -> f ~name ~metrics ~payload) emit

let print_fig1 ?(out = std) ?emit ?domains () =
  let curves = Fig1.run ?domains () in
  Format.fprintf out
    "Figure 1: critical-section length vs application execution time@.%s@."
    (Fig1.to_plot curves);
  Format.fprintf out "Claims check:@.%s@." (Fig1.crossover_summary curves);
  let metrics =
    List.concat_map
      (fun (c : Fig1.curve) ->
        List.map
          (fun (p : Fig1.point) ->
            ( Printf.sprintf "%s/cs_ns=%d/total_ns" (Locks.Lock.kind_name c.Fig1.kind)
                p.Fig1.cs_ns,
              float_of_int p.Fig1.total_ns ))
          c.Fig1.points)
      curves
  in
  deliver ?emit ~name:"fig1.csv" ~metrics (Fig1.csv_string curves)

let tsp_table_title = function
  | Tsp.Parallel.Centralized -> "Table 1: centralized implementation"
  | Tsp.Parallel.Distributed -> "Table 2: distributed implementation"
  | Tsp.Parallel.Balanced -> "Table 3: distributed implementation with load balancing"

let paper_tsp = function
  | Tsp.Parallel.Centralized -> Paper.table1
  | Tsp.Parallel.Distributed -> Paper.table2
  | Tsp.Parallel.Balanced -> Paper.table3

let fms v = Printf.sprintf "%.0f" v

let print_tsp_table out (row : Tsp_experiments.table) =
  let p = paper_tsp row.Tsp_experiments.impl in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "quantity"; "measured"; "paper" ]
  in
  (match (row.Tsp_experiments.impl, p.Paper.sequential_ms) with
  | Tsp.Parallel.Centralized, Some seq ->
    Repro_stats.Table.add_row tbl
      [ "sequential (ms)"; fms row.Tsp_experiments.sequential_ms; fms seq ]
  | _ -> ());
  Repro_stats.Table.add_rows tbl
    [
      [ "blocking lock (ms)"; fms row.Tsp_experiments.blocking_ms; fms p.Paper.blocking_ms ];
      [ "adaptive lock (ms)"; fms row.Tsp_experiments.adaptive_ms; fms p.Paper.adaptive_ms ];
      [
        "improvement";
        Repro_stats.Table.pct row.Tsp_experiments.improvement_pct;
        Repro_stats.Table.pct p.Paper.improvement_pct;
      ];
      [
        "speedup (blocking)";
        Printf.sprintf "%.2fx" row.Tsp_experiments.speedup_blocking;
        (match p.Paper.sequential_ms with
        | Some seq -> Printf.sprintf "%.2fx" (seq /. p.Paper.blocking_ms)
        | None -> "-");
      ];
    ];
  Format.fprintf out "%s@."
    (Repro_stats.Table.render ~title:(tsp_table_title row.Tsp_experiments.impl) tbl)

let print_tsp ?(out = std) ?emit ?spec ?domains () =
  let t = Tsp_experiments.run_all ?spec ?domains () in
  Format.fprintf out
    "TSP setup: %d cities (seed %d), %d searchers, optimum %d, sequential expanded %d \
     nodes in %.0f ms@.@."
    t.Tsp_experiments.spec.Tsp.Parallel.cities
    t.Tsp_experiments.spec.Tsp.Parallel.instance_seed
    t.Tsp_experiments.spec.Tsp.Parallel.searchers t.Tsp_experiments.sequential_cost
    t.Tsp_experiments.sequential_nodes
    (float_of_int t.Tsp_experiments.sequential_ns /. 1e6);
  List.iter (print_tsp_table out) t.Tsp_experiments.tables;
  (* Wait-time distributions of the contended locks (blocking runs). *)
  List.iter
    (fun (row : Tsp_experiments.table) ->
      List.iter
        (fun name ->
          match List.assoc_opt name row.Tsp_experiments.blocking_result.Tsp.Parallel.lock_reports with
          | Some s when Locks.Lock_stats.contended s > 0 ->
            Format.fprintf out "%s %s waits: %s@."
              (Tsp.Parallel.impl_name row.Tsp_experiments.impl)
              name
              (Repro_stats.Histogram.summary (Locks.Lock_stats.wait_histogram s))
          | _ -> ())
        [ "qlock"; "glob-act-lock" ])
    t.Tsp_experiments.tables;
  Format.fprintf out "@.";
  List.iter
    (fun (number, impl, lock) ->
      match Tsp_experiments.figure t ~impl ~lock with
      | None -> Format.fprintf out "Figure %d: (no trace recorded)@." number
      | Some series ->
        Format.fprintf out "Figure %d: %s@.%s@." number
          (Tsp_experiments.figure_description ~impl ~lock)
          (Repro_stats.Plot.series series);
        let waiting_max =
          match Engine.Series.max_value series with Some v -> v | None -> 0.0
        in
        let waiting_mean =
          match Engine.Series.time_weighted_mean series with Some v -> v | None -> 0.0
        in
        Format.fprintf out "  peak waiting=%.0f, time-weighted mean=%.2f, samples=%d@.@."
          waiting_max waiting_mean (Engine.Series.length series);
        deliver ?emit
          ~name:(Printf.sprintf "fig%d.csv" number)
          ~metrics:
            [
              ("peak_waiting", waiting_max);
              ("mean_waiting", waiting_mean);
              ("samples", float_of_int (Engine.Series.length series));
            ]
          (Engine.Series.csv_string [ series ]))
    Tsp_experiments.all_figures

let print_schedulers ?(out = std) ?domains () =
  let rows = Ablations.schedulers ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:
        [ "scheduler"; "mean response (us)"; "server wait (us)"; "total (ms)" ]
  in
  List.iter
    (fun (r : Ablations.sched_row) ->
      Repro_stats.Table.add_row tbl
        [
          Locks.Lock_sched.kind_name r.Ablations.sched;
          Printf.sprintf "%.1f" r.Ablations.mean_response_us;
          Printf.sprintf "%.1f" r.Ablations.server_wait_us;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:
         "Ablation: lock schedulers on a client-server workload ([MS93]: priority best, \
          FCFS worst)"
       tbl)

let print_coupling ?(out = std) ?domains () =
  let rows = Ablations.coupling ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "feedback loop"; "total (ms)"; "adaptations"; "max observation lag (us)" ]
  in
  List.iter
    (fun (r : Ablations.coupling_row) ->
      Repro_stats.Table.add_row tbl
        [
          r.Ablations.coupling;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.adaptations;
          Printf.sprintf "%.1f" r.Ablations.max_lag_us;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:
         "Ablation: closely- vs loosely-coupled adaptation (the paper's case for the \
          customized lock monitor)"
       tbl)

let print_sampling ?(out = std) ?domains () =
  let rows = Ablations.sampling ?domains ~periods:[ 1; 2; 4; 8; 16; 64 ] () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "sampling period"; "total (ms)"; "samples"; "adaptations" ]
  in
  List.iter
    (fun (r : Ablations.sampling_row) ->
      Repro_stats.Table.add_row tbl
        [
          string_of_int r.Ablations.period;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.samples;
          string_of_int r.Ablations.adaptations;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:"Ablation: monitor sampling rate (cost vs quality of adaptation, section 3)"
       tbl)

let print_threshold ?(out = std) ?domains () =
  let rows = Ablations.threshold ?domains ~thresholds:[ 1; 3; 6; 10 ] ~ns:[ 2; 6; 12 ] () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "Waiting-Threshold"; "n"; "total (ms)"; "blocks"; "spin probes" ]
  in
  List.iter
    (fun (r : Ablations.threshold_row) ->
      Repro_stats.Table.add_row tbl
        [
          string_of_int r.Ablations.waiting_threshold;
          string_of_int r.Ablations.n;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.blocks;
          string_of_int r.Ablations.spin_probes;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:"Ablation: simple-adapt constants (Waiting-Threshold and n, section 4)"
       tbl)

let print_advisory ?(out = std) ?domains () =
  let rows = Ablations.advisory ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "lock"; "total (ms)"; "blocks"; "spin probes"; "mean wait (us)" ]
  in
  List.iter
    (fun (r : Ablations.advisory_row) ->
      Repro_stats.Table.add_row tbl
        [
          r.Ablations.advisory_lock;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.blocks;
          string_of_int r.Ablations.spin_probes;
          Printf.sprintf "%.1f" r.Ablations.mean_wait_advisory_us;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:
         "Ablation: advisory locks on variable-length critical sections (section 2: the \
          owner advises waiters to spin or sleep)"
       tbl)

let print_architecture ?(out = std) ?domains () =
  let rows = Ablations.architecture ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "arch"; "lock"; "total (ms)"; "remote accesses"; "mean wait (us)" ]
  in
  List.iter
    (fun (r : Ablations.arch_row) ->
      Repro_stats.Table.add_row tbl
        [
          r.Ablations.arch;
          r.Ablations.lock_impl;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.remote_accesses;
          Printf.sprintf "%.1f" r.Ablations.mean_wait_us;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:
         "Ablation: lock implementations re-targeted across architectures ([MS93]: \
          distributed/local-spin pays off on NUMA only)"
       tbl)

let print_phases ?(out = std) ?domains () =
  let rows = Ablations.phases ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "lock"; "total (ms)"; "adaptations"; "mean wait (us)" ]
  in
  List.iter
    (fun (r : Ablations.phase_row) ->
      Repro_stats.Table.add_row tbl
        [
          Locks.Lock.kind_name r.Ablations.kind;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.adaptations;
          Printf.sprintf "%.1f" r.Ablations.mean_wait_us;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:"Ablation: phased contention (adaptive vs static waiting policies)" tbl)

let print_barriers ?(out = std) ?domains () =
  let rows = Ablations.barriers ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:[ "barrier"; "total (ms)"; "adaptations"; "final spin budget (ns)" ]
  in
  List.iter
    (fun (r : Ablations.barrier_row) ->
      Repro_stats.Table.add_row tbl
        [
          r.Ablations.barrier_impl;
          Repro_stats.Table.ms_of_ns r.Ablations.total_ns;
          string_of_int r.Ablations.barrier_adaptations;
          string_of_int r.Ablations.final_spin_ns;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:
         "Ablation: barrier arrival strategies on phased skew (adaptive spin budget vs \
          fixed spin/block)"
       tbl)

let print_switch_locks ?(out = std) ?emit ?domains () =
  let rows = Ablations.switch_locks ?domains () in
  let tbl =
    Repro_stats.Table.create
      ~headers:
        [
          "regime"; "variant"; "total (ms)"; "mean wait (us)"; "blocks";
          "spin probes"; "swaps"; "final impl";
        ]
  in
  List.iter
    (fun (r : Ablations.switch_row) ->
      Repro_stats.Table.add_row tbl
        [
          r.Ablations.sw_point;
          r.Ablations.sw_variant;
          Repro_stats.Table.ms_of_ns r.Ablations.sw_total_ns;
          Printf.sprintf "%.1f" r.Ablations.sw_mean_wait_us;
          string_of_int r.Ablations.sw_blocks;
          string_of_int r.Ablations.sw_spin_probes;
          string_of_int r.Ablations.sw_swaps;
          r.Ablations.sw_final_impl;
        ])
    rows;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:
         "Ablation: lock implementation as the adaptive attribute (TAS / MCS queue / \
          blocking, pinned vs hot-swapped)"
       tbl);
  let violations = Ablations.switch_gate rows in
  (match violations with
  | [] ->
    Format.fprintf out
      "gate: adaptive beats the worst pinned variant at every regime and stays within \
       5%% of the best at the extremes@."
  | vs -> List.iter (fun v -> Format.fprintf out "gate VIOLATION: %s@." v) vs);
  let payload =
      let b = Buffer.create 2048 in
      Buffer.add_string b "{\n  \"points\": [\n";
      List.iteri
        (fun i (label, workers, procs, iters, cs_ns, think_ns) ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"label\": %S, \"workers\": %d, \"processors\": %d, \
                \"iterations\": %d, \"cs_ns\": %d, \"think_ns\": %d}%s\n"
               label workers procs iters cs_ns think_ns
               (if i < List.length Ablations.switch_points - 1 then "," else "")))
        Ablations.switch_points;
      Buffer.add_string b "  ],\n  \"rows\": [\n";
      List.iteri
        (fun i (r : Ablations.switch_row) ->
          Buffer.add_string b
            (Printf.sprintf
               "    {\"point\": %S, \"variant\": %S, \"total_ns\": %d, \
                \"mean_wait_us\": %.1f, \"blocks\": %d, \"spin_probes\": %d, \
                \"swaps\": %d, \"final_impl\": %S}%s\n"
               r.Ablations.sw_point r.Ablations.sw_variant r.Ablations.sw_total_ns
               r.Ablations.sw_mean_wait_us r.Ablations.sw_blocks
               r.Ablations.sw_spin_probes r.Ablations.sw_swaps
               r.Ablations.sw_final_impl
               (if i < List.length rows - 1 then "," else "")))
        rows;
      Buffer.add_string b "  ],\n";
      Buffer.add_string b
        (Printf.sprintf "  \"gate\": {\"slack_pct\": 5.0, \"ok\": %b, \"violations\": [%s]}\n"
           (violations = [])
           (String.concat ", " (List.map (Printf.sprintf "%S") violations)));
      Buffer.add_string b "}\n";
      Buffer.contents b
  in
  let metrics =
    (("gate_ok", if violations = [] then 1.0 else 0.0)
    :: List.concat_map
         (fun (r : Ablations.switch_row) ->
           [
             ( Printf.sprintf "%s/%s/total_ns" r.Ablations.sw_point r.Ablations.sw_variant,
               float_of_int r.Ablations.sw_total_ns );
             ( Printf.sprintf "%s/%s/mean_wait_us" r.Ablations.sw_point
                 r.Ablations.sw_variant,
               r.Ablations.sw_mean_wait_us );
           ])
         rows)
  in
  deliver ?emit ~name:"ABLATION_LOCKS_results.json" ~metrics payload;
  violations = []

let print_objects ?(out = std) ?emit ?(spec = Workloads.Sync_objects.default) ?only ?domains
    () =
  let r =
    List.hd
      (Engine.Runner.map ?domains (fun spec -> Workloads.Sync_objects.run spec) [ spec ])
  in
  (* [only] filters the registry dump (and its JSON) to one object by
     name — the same --only contract the checker subcommands have. *)
  let r =
    match only with
    | None -> r
    | Some name ->
      {
        r with
        Workloads.Sync_objects.snapshot =
          List.filter
            (fun (m : Adaptive_core.Registry.metrics) ->
              m.Adaptive_core.Registry.name = name)
            r.Workloads.Sync_objects.snapshot;
      }
  in
  let tbl =
    Repro_stats.Table.create
      ~headers:
        [
          "id"; "kind"; "name"; "samples"; "policy runs"; "adaptations";
          "cost (r/w/i)"; "last transition";
        ]
  in
  List.iter
    (fun (m : Adaptive_core.Registry.metrics) ->
      let s = m.Adaptive_core.Registry.stats in
      Repro_stats.Table.add_row tbl
        [
          string_of_int m.Adaptive_core.Registry.id;
          m.Adaptive_core.Registry.kind;
          m.Adaptive_core.Registry.name;
          string_of_int s.Adaptive_core.Registry.samples;
          string_of_int s.Adaptive_core.Registry.policy_runs;
          string_of_int s.Adaptive_core.Registry.adaptations;
          Printf.sprintf "%d/%d/%d"
            s.Adaptive_core.Registry.total_cost.Adaptive_core.Cost.reads
            s.Adaptive_core.Registry.total_cost.Adaptive_core.Cost.writes
            s.Adaptive_core.Registry.total_cost.Adaptive_core.Cost.instrs;
          (match s.Adaptive_core.Registry.last_label with None -> "-" | Some l -> l);
        ])
    r.Workloads.Sync_objects.snapshot;
  Format.fprintf out "%s@."
    (Repro_stats.Table.render
       ~title:"Adaptive-object registry after the sync-objects workload" tbl);
  (* Formal check (§3.1): each recorded adaptation log must stay
     inside its object's declared configuration space. *)
  let checked, violations =
    List.fold_left
      (fun (n, vs) (m : Adaptive_core.Registry.metrics) ->
        match Adaptive_core.Registry.validate_log m with
        | None -> (n, vs)
        | Some (Ok ()) -> (n + 1, vs)
        | Some (Error why) ->
          (n + 1, (m.Adaptive_core.Registry.name, why) :: vs))
      (0, []) r.Workloads.Sync_objects.snapshot
  in
  List.iter
    (fun (name, why) ->
      Format.fprintf out "policy-log VIOLATION %s: %s@." name why)
    (List.rev violations);
  Format.fprintf out
    "objects=%d adaptations=%d total=%s ms (logs formally checked: %d, violations: \
     %d)@."
    (List.length r.Workloads.Sync_objects.snapshot)
    r.Workloads.Sync_objects.adaptations
    (Repro_stats.Table.ms_of_ns r.Workloads.Sync_objects.total_ns)
    checked (List.length violations);
  let metrics =
    ("objects", float_of_int (List.length r.Workloads.Sync_objects.snapshot))
    :: ("adaptations", float_of_int r.Workloads.Sync_objects.adaptations)
    :: ("total_ns", float_of_int r.Workloads.Sync_objects.total_ns)
    :: ("policy_violations", float_of_int (List.length violations))
    :: List.map
         (fun (m : Adaptive_core.Registry.metrics) ->
           ( Printf.sprintf "%s:%s/adaptations" m.Adaptive_core.Registry.kind
               m.Adaptive_core.Registry.name,
             float_of_int
               m.Adaptive_core.Registry.stats.Adaptive_core.Registry.adaptations ))
         r.Workloads.Sync_objects.snapshot
  in
  deliver ?emit ~name:"OBJECTS_results.json" ~metrics
    (Adaptive_core.Registry.to_json r.Workloads.Sync_objects.snapshot)
