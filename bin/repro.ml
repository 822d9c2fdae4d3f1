(* The repro CLI: regenerate any table, figure or ablation of the paper
   individually, or everything at once. Every artifact goes through one
   sink (Fleet.Sink) that appends its store record and writes its legacy
   file from the record's payload. The gated subcommands (objects,
   ablation-locks, chaos, analyze, check-policies, check-protocols) are
   drivers of the catalogue (Fleet.Catalogue): `repro <cmd> FLAGS` runs
   one config of driver <cmd> through the code `repro run` runs specs
   with, and `repro view` queries the accumulated records. *)

open Cmdliner
module R = Experiments.Report

let searchers =
  let doc = "Number of searcher threads (dedicated processors) for TSP runs." in
  Arg.(value & opt int Tsp.Parallel.default_spec.Tsp.Parallel.searchers
       & info [ "searchers" ] ~docv:"N" ~doc)

let cities =
  let doc = "TSP instance size (cities)." in
  Arg.(value & opt int Tsp.Parallel.default_spec.Tsp.Parallel.cities
       & info [ "cities" ] ~docv:"N" ~doc)

let instance_seed =
  let doc = "TSP instance seed." in
  Arg.(value & opt int Tsp.Parallel.default_spec.Tsp.Parallel.instance_seed
       & info [ "seed" ] ~docv:"SEED" ~doc)

let tsp_spec searchers cities instance_seed =
  { Tsp.Parallel.default_spec with Tsp.Parallel.searchers; cities; instance_seed }

let simple name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun domains ->
          Cli.set_domains domains;
          f ())
      $ Cli.domains)

let tables =
  [
    ("table4", "Table 4: Lock-operation cost", fun () -> R.print_table4 ());
    ("table5", "Table 5: Unlock-operation cost", fun () -> R.print_table5 ());
    ("table6", "Table 6: locking cycle, static locks", fun () -> R.print_table6 ());
    ("table7", "Table 7: locking cycle, adaptive lock", fun () -> R.print_table7 ());
    ("table8", "Table 8: configuration-operation costs", fun () -> R.print_table8 ());
  ]

(* In the order `repro all` prints them. *)
let ablations =
  [
    ("ablation-sched", "Lock schedulers (FCFS/priority/handoff)", fun () ->
        R.print_schedulers ());
    ("ablation-coupling", "Closely vs loosely coupled adaptation", fun () ->
        R.print_coupling ());
    ("ablation-sampling", "Monitor sampling-rate sweep", fun () -> R.print_sampling ());
    ("ablation-threshold", "simple-adapt constants sweep", fun () -> R.print_threshold ());
    ("ablation-phases", "Phased contention, adaptive vs static", fun () ->
        R.print_phases ());
    ("ablation-barriers", "Adaptive vs fixed barrier arrival strategies", fun () ->
        R.print_barriers ());
    ("ablation-advisory", "Advisory locks on variable-length sections", fun () ->
        R.print_advisory ());
    ("ablation-architecture", "Lock implementations across UMA/NUMA", fun () ->
        R.print_architecture ());
  ]

(* Figures 1 and 4-9 are Report sections: their artifacts reach the
   sink through the Report emit hook. *)
let fig_hook c driver config = Fleet.Sink.hook c ~driver ~kind:"FIG" ~config

let fig1_cmd =
  Cmd.v (Cmd.info "fig1" ~doc:"Figure 1: critical-section sweep")
    Term.(const (fun c -> R.print_fig1 ~emit:(fig_hook c "fig1" []) ()) $ Cli.common)

let tsp_cmd =
  let doc = "Tables 1-3 and Figures 4-9 (the TSP evaluation)" in
  let run c searchers cities seed =
    let config =
      [
        ("searchers", string_of_int searchers);
        ("cities", string_of_int cities);
        ("seed", string_of_int seed);
      ]
    in
    R.print_tsp ~emit:(fig_hook c "tsp" config) ~spec:(tsp_spec searchers cities seed) ()
  in
  Cmd.v (Cmd.info "tsp" ~doc)
    Term.(const run $ Cli.common $ searchers $ cities $ instance_seed)

let single_fig_cmds =
  List.map
    (fun (number, impl, lock) ->
      let name = Printf.sprintf "fig%d" number in
      let doc = Experiments.Tsp_experiments.figure_description ~impl ~lock in
      let run searchers cities seed domains =
        Cli.set_domains domains;
        let t =
          Experiments.Tsp_experiments.run_all ~spec:(tsp_spec searchers cities seed) ()
        in
        match Experiments.Tsp_experiments.figure t ~impl ~lock with
        | None -> print_endline "no trace recorded"
        | Some series ->
          Printf.printf "Figure %d: %s\n%s\n" number doc (Repro_stats.Plot.series series)
      in
      Cmd.v (Cmd.info name ~doc)
        Term.(const run $ searchers $ cities $ instance_seed $ Cli.domains))
    Experiments.Tsp_experiments.all_figures

let single_table_cmds =
  List.map
    (fun (name, doc, impl) ->
      let run searchers cities seed domains =
        Cli.set_domains domains;
        let t =
          Experiments.Tsp_experiments.run_all ~spec:(tsp_spec searchers cities seed) ()
        in
        let row = Experiments.Tsp_experiments.table t impl in
        Printf.printf
          "%s\n  sequential %.0f ms\n  blocking   %.0f ms\n  adaptive   %.0f ms\n  improvement %.1f%%\n"
          doc row.Experiments.Tsp_experiments.sequential_ms
          row.Experiments.Tsp_experiments.blocking_ms
          row.Experiments.Tsp_experiments.adaptive_ms
          row.Experiments.Tsp_experiments.improvement_pct
      in
      Cmd.v (Cmd.info name ~doc)
        Term.(const run $ searchers $ cities $ instance_seed $ Cli.domains))
    [
      ("table1", "Table 1: centralized TSP", Tsp.Parallel.Centralized);
      ("table2", "Table 2: distributed TSP", Tsp.Parallel.Distributed);
      ("table3", "Table 3: distributed TSP with load balancing", Tsp.Parallel.Balanced);
    ]

(* ------------------------------------------------------------------ *)
(* The catalogue route: spec -> configs -> outcomes -> records -> sink *)

(* Validate a spec against the catalogue (exit 2 on error) and expand it. *)
let checked who (s : Fleet.Spec.t) =
  match Fleet.Catalogue.validate s with
  | Ok () -> (Option.get (Fleet.Catalogue.find s.Fleet.Spec.sp_driver), Fleet.Spec.expand s)
  | Error e ->
    prerr_endline (who ^ ": " ^ e);
    exit 2

let execute ~spec d configs =
  let outcomes = Engine.Runner.map (Fleet.Catalogue.run d) configs in
  List.map2 (fun config o -> (Fleet.Catalogue.record ~spec d config o, o)) configs outcomes

(* One config of a catalogue driver, as its subcommand: the driver's
   text, then its artifact through the sink, then its gate verdict.
   Records of one-config runs carry the empty spec id. *)
let one_config ?(announce = true) c name config =
  let spec =
    {
      Fleet.Spec.sp_id = name;
      sp_driver = name;
      sp_axes = List.sort compare (List.map (fun (k, v) -> (k, [ v ])) config);
    }
  in
  let d, configs = checked ("repro " ^ name) spec in
  let record, o = List.hd (execute ~spec:"" d configs) in
  print_string o.Fleet.Catalogue.o_text;
  (match Fleet.Sink.write c ~legacy:(Option.get d.Fleet.Catalogue.d_legacy) record with
  | Some path when announce -> Printf.printf "wrote %s\n" path
  | _ -> ());
  print_string o.Fleet.Catalogue.o_verdict;
  o.Fleet.Catalogue.o_ok

(* A subcommand for a gated driver; [config] maps its flags to axes. *)
let gated ?(no_fail = Term.const false) name config =
  let d = Option.get (Fleet.Catalogue.find name) in
  let doc =
    Printf.sprintf
      "%s Exits non-zero when the gate fails. With --csv-dir, writes %s (byte-identical \
       at any --domains)."
      d.Fleet.Catalogue.d_doc (Option.get d.Fleet.Catalogue.d_legacy)
  in
  let run c config no_fail = if not (one_config c name config || no_fail) then exit 1 in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ Cli.common $ config $ no_fail)

let opt key = Option.fold ~none:[] ~some:(fun v -> [ (key, v) ])
let flag names doc = Arg.(value & flag & info names ~doc)

let analyze_cmd =
  let config verbose predict confirm =
    [ ("predict", string_of_bool (predict || confirm)); ("confirm", string_of_bool confirm) ]
    @ if verbose then [ ("verbose", "true") ] else []
  in
  gated "analyze"
    ~no_fail:
      (flag [ "no-fail" ] "Always exit 0, even when a scenario misses its expectation.")
    Term.(
      const config
      $ flag [ "v"; "verbose" ] "Print every diagnostic, not just summaries."
      $ flag [ "predict" ] "Run the weak-causality predictor on every scenario."
      $ flag [ "confirm" ]
          "Re-execute each prediction under a synthesized witness schedule (implies \
           --predict).")

let chaos_cmd =
  let seeds =
    Arg.(value & opt (some int) None
         & info [ "seeds" ] ~docv:"N" ~doc:"Fault-plan seeds per scenario (1..N).")
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"SPEC"
             ~doc:
               "Replay this exact fault plan (the spec-string syntax of \
                Faults.Fault_plan, as printed for a failing run) instead of generating \
                seeded plans.")
  in
  let scenario =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Restrict the sweep to one scenario (alias of --only).")
  in
  let config seeds quick plan scenario swap_faults only =
    (match plan with
    | Some p -> [ ("plan", p) ]
    | None -> opt "seeds" (if quick then Some "2" else Option.map string_of_int seeds))
    @ [ ("swap_faults", string_of_bool swap_faults) ]
    @ opt "scenario" (if only = None then scenario else only)
  in
  gated "chaos"
    Term.(
      const config $ seeds
      $ flag [ "quick" ] "Smoke mode for CI: 2 seeds per scenario."
      $ plan $ scenario
      $ flag [ "swap-faults" ]
          "Also draw swap-window faults (drain stalls and kills timed to land inside a \
           switch-lock implementation swap) into the generated plans."
      $ Cli.only)

let gated_cmds =
  [
    gated "objects" Term.(const (opt "only") $ Cli.only);
    gated "ablation-locks" (Term.const []);
    gated "check-policies" Term.(const (opt "only") $ Cli.only);
    gated "check-protocols" Term.(const (opt "only") $ Cli.only);
    analyze_cmd;
    chaos_cmd;
  ]

let all_cmd =
  let run c =
    let section title = Printf.printf "=== %s ===\n\n" title in
    section "Lock operation microbenchmarks (Tables 4-8)";
    List.iter (fun (_, _, f) -> f ()) tables;
    section "Figure 1";
    R.print_fig1 ~emit:(fig_hook c "fig1" []) ();
    section "TSP application (Tables 1-3, Figures 4-9)";
    R.print_tsp ~emit:(fig_hook c "tsp" []) ();
    section "Ablations";
    List.iter (fun (_, _, f) -> f ()) ablations;
    ignore (one_config ~announce:false c "ablation-locks" []);
    section "Adaptive-object registry";
    ignore (one_config ~announce:false c "objects" [])
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Every table, figure and ablation in paper order")
    Term.(const run $ Cli.common)

let run_cmd =
  let doc =
    "Execute an experiment-fleet spec: a JSON declaration of a cross-product sweep \
     (axes x values) over one of the catalogue drivers, validated up front, run \
     through the deterministic domain-parallel runner, with one store record \
     appended per config. The store is byte-identical at any --domains. See \
     --catalogue for the drivers and their axes."
  in
  let spec_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SPEC.json" ~doc:"Spec file (one spec object or an array).")
  in
  let dry =
    flag [ "dry-run" ] "Validate and print the expanded configs without running anything."
  in
  let catalogue = flag [ "catalogue" ] "Print the driver catalogue and exit." in
  let run c spec_path dry catalogue =
    if catalogue then print_string (Fleet.Catalogue.describe ())
    else
      match Option.map Fleet.Spec.of_file spec_path with
      | None ->
        prerr_endline "repro run: a SPEC.json argument is required (or --catalogue)";
        exit 2
      | Some (Error e) ->
        prerr_endline ("repro run: " ^ e);
        exit 2
      | Some (Ok specs) ->
        let runs = List.map (checked "repro run") specs in
        let store = Cli.store_path c in
        List.iter2
          (fun s (d, configs) ->
            let id = s.Fleet.Spec.sp_id and name = d.Fleet.Catalogue.d_name in
            if dry then begin
              Printf.printf "spec %s: driver %s, %d configs\n" id name (List.length configs);
              List.iter
                (fun config ->
                  print_endline
                    ("  " ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) config)))
                configs
            end
            else begin
              let records = List.map fst (execute ~spec:id d configs) in
              Fleet.Sink.append { c with store = Some store } records;
              Printf.printf "spec %-20s driver %-12s %4d configs -> %s\n" id name
                (List.length records) store
            end)
          specs runs
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ Cli.common $ spec_arg $ dry $ catalogue)

let view_cmd =
  let doc =
    "Query the results store: `top N by METRIC [where K=V ...]`, `mean|sum|min|max| \
     count METRIC [group by driver|kind|rev|spec|config:KEY]`, `regressions since \
     REV [tolerance PCT]` (REV may be `earliest`/`latest`/a prefix), or `list \
     drivers|kinds|revs|specs`. Output is deterministic and byte-identical at any \
     --domains."
  in
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The query.")
  in
  let run c query =
    let path = Cli.store_path c in
    match Fleet.Store.load ~path with
    | Error e ->
      prerr_endline ("repro view: " ^ e);
      exit 2
    | Ok records -> (
      match Fleet.Query.parse query with
      | Error e ->
        prerr_endline ("repro view: " ^ e);
        exit 2
      | Ok q -> print_string (Fleet.Query.run records q))
  in
  Cmd.v (Cmd.info "view" ~doc) Term.(const run $ Cli.common $ query_arg)

let () =
  let doc = "Reproduce the tables and figures of Mukherjee & Schwan, GIT-CC-93/17" in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let simples = List.map (fun (name, doc, f) -> simple name doc f) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          ((all_cmd :: fig1_cmd :: tsp_cmd :: run_cmd :: view_cmd :: gated_cmds)
          @ simples tables @ single_table_cmds @ single_fig_cmds @ simples ablations)))
