(* The four workloads. Each one is a set-up (everything built before the
   first timed call: parsed specs, scenario and model catalogues, the
   committed reference bytes) returning a pass: one closed-loop batch
   run of the workload that checks its own outputs. Every call into a
   layer goes through [Span.with_span], which records only during a
   traced pass. *)

type pass = {
  events : int;  (** simulated events executed (domain odometer) *)
  work : float;  (** throughput numerator: events, or protocol states on proto *)
  exact : (string * int) list;
      (** simulated counts that must repeat exactly on every pass *)
  digest : string;  (** of every output the pass produced *)
  checks : (string * bool) list;  (** one entry per output check *)
  counts : (string * float) list;  (** per-layer counts only the outputs give *)
}

type t = {
  name : string;
  seeding : string;  (** what --seed changes *)
  elasticity : float;
      (** how strongly a pass slows with the host-speed reference (Calib):
          the slope of log pass time on log reference time *)
  setup : seed:int -> out_dir:string -> unit -> unit -> pass;
      (** set-up; the closure it returns runs one pass *)
}

let span = Span.with_span
let null_fmt = Format.make_formatter (fun _ _ _ -> ()) ignore

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

let same_as_committed name bytes =
  (name, read_file (Filename.concat "results" name) = Some bytes)

let events_since e0 = Butterfly.Sched.domain_events_total () - e0

(* ------------------------------------------------------------------ *)
(* paper: every table, figure and ablation, then the smoke fleet spec *)

(* TSP instance seeds whose pass does the same work as the paper's
   instance (seed 11): within 1% of its simulated events and 3% of its
   TSP host time (random instances differ by up to 4x in TSP time).
   --seed picks one, so a seed changes the instance but not the size of
   the run. Instance 339 also matches, but its pass peaks at 54 MB
   where these two peak at 49 MB, so it is left out. *)
let paper_instances = [| 11; 53 |]

let instance_seed seed =
  paper_instances.(abs (seed mod Array.length paper_instances))

(* The paper instance's TSP outcome: nodes expanded over the seven runs
   and virtual ns summed over the three adaptive runs (Tables 1-3). *)
let paper_tsp_nodes = 16_323
let paper_tsp_adaptive_ns = 8_023_338_054

let smoke_queries =
  [
    "top 5 by mean_wait_us where driver=csweep";
    "mean total_ns group by config:lock where driver=csweep";
  ]

let lock_err_pct tables =
  let errs =
    List.concat_map
      (fun (_, paper, rows) ->
        List.concat_map
          (fun (r : Experiments.Lock_tables.row) ->
            match
              List.find_opt
                (fun (p : Experiments.Paper.lock_op_row) ->
                  p.Experiments.Paper.lock_name = r.Experiments.Lock_tables.op)
                paper
            with
            | None -> []
            | Some p ->
              List.filter_map
                (fun (m, p) ->
                  if Float.is_nan m || Float.is_nan p || p <= 0. then None
                  else Some (Float.abs (m -. p) /. p *. 100.))
                [
                  (r.Experiments.Lock_tables.local_us, p.Experiments.Paper.local_us);
                  (r.Experiments.Lock_tables.remote_us, p.Experiments.Paper.remote_us);
                ])
          rows)
      tables
  in
  List.fold_left ( +. ) 0. errs /. float_of_int (max 1 (List.length errs))

(* What [Report.print_tsp] does after [Tsp_experiments.run_all], through
   public functions into [null_fmt]: the Tables 1-3 rendering, the
   blocking runs' lock-wait histograms, and the Figures 4-9 strip charts
   and statistics, whose CSVs go to [emit]. *)
let render_tsp ~emit (t : Experiments.Tsp_experiments.t) =
  let module T = Experiments.Tsp_experiments in
  let module P = Experiments.Paper in
  let ms v = Printf.sprintf "%.0f" v in
  List.iter
    (fun (row : T.table) ->
      let paper =
        match row.T.impl with
        | Tsp.Parallel.Centralized -> P.table1
        | Tsp.Parallel.Distributed -> P.table2
        | Tsp.Parallel.Balanced -> P.table3
      in
      let tbl = Repro_stats.Table.create ~headers:[ "quantity"; "measured"; "paper" ] in
      Repro_stats.Table.add_rows tbl
        [
          [ "blocking lock (ms)"; ms row.T.blocking_ms; ms paper.P.blocking_ms ];
          [ "adaptive lock (ms)"; ms row.T.adaptive_ms; ms paper.P.adaptive_ms ];
          [
            "improvement";
            Repro_stats.Table.pct row.T.improvement_pct;
            Repro_stats.Table.pct paper.P.improvement_pct;
          ];
          [ "speedup (blocking)"; Printf.sprintf "%.2fx" row.T.speedup_blocking; "-" ];
        ];
      Format.fprintf null_fmt "%s@."
        (Repro_stats.Table.render ~title:(Tsp.Parallel.impl_name row.T.impl) tbl);
      List.iter
        (fun name ->
          match List.assoc_opt name row.T.blocking_result.Tsp.Parallel.lock_reports with
          | Some s when Locks.Lock_stats.contended s > 0 ->
            Format.fprintf null_fmt "%s waits: %s@." name
              (Repro_stats.Histogram.summary (Locks.Lock_stats.wait_histogram s))
          | _ -> ())
        [ "qlock"; "glob-act-lock" ])
    t.T.tables;
  List.iter
    (fun (number, impl, lock) ->
      match T.figure t ~impl ~lock with
      | None -> ()
      | Some series ->
        Format.fprintf null_fmt "%s@." (Repro_stats.Plot.series series);
        let stat = Option.value ~default:0. in
        emit
          ~name:(Printf.sprintf "fig%d.csv" number)
          ~metrics:
            [
              ("peak_waiting", stat (Engine.Series.max_value series));
              ("mean_waiting", stat (Engine.Series.time_weighted_mean series));
              ("samples", float_of_int (Engine.Series.length series));
            ]
          ~payload:(Engine.Series.csv_string [ series ]))
    T.all_figures

let paper ~seed ~out_dir () =
  let module E = Experiments in
  let spec =
    { Tsp.Parallel.default_spec with Tsp.Parallel.instance_seed = instance_seed seed }
  in
  let paper_instance =
    spec.Tsp.Parallel.instance_seed = Tsp.Parallel.default_spec.Tsp.Parallel.instance_seed
  in
  let smoke =
    match Fleet.Spec.of_file "specs/smoke.json" with
    | Ok [ s ] when Fleet.Catalogue.validate s = Ok () -> s
    | _ -> failwith "specs/smoke.json: not one valid spec"
  in
  let driver = Option.get (Fleet.Catalogue.find smoke.Fleet.Spec.sp_driver) in
  let configs = Fleet.Spec.expand smoke in
  let rev = E.Perf.git_rev () and host = "perfbench" in
  let committed =
    match Fleet.Store.load ~path:"results/store.jsonl" with
    | Ok records ->
      List.filter_map
        (fun r ->
          if r.Fleet.Store.r_spec = smoke.Fleet.Spec.sp_id then
            Some { r with Fleet.Store.r_rev = rev; r_host = host }
          else None)
        records
    | Error e -> failwith ("results/store.jsonl: " ^ e)
  in
  let queries = List.map (fun q -> Result.get_ok (Fleet.Query.parse q)) smoke_queries in
  let expected_views = List.map (Fleet.Query.run ~domains:1 committed) queries in
  let store = Filename.concat out_dir "paper-store.jsonl" in
  fun () ->
    let e0 = Butterfly.Sched.domain_events_total () in
    let artifacts = ref [] in
    let emit ~name ~metrics:_ ~payload = artifacts := (name, payload) :: !artifacts in
    let tables =
      span "lock_tables" (fun () ->
          let tables =
            [
              ("Table 4", E.Paper.table4, E.Lock_tables.table4 ~domains:1 ());
              ("Table 5", E.Paper.table5, E.Lock_tables.table5 ~domains:1 ());
              ("Table 6", E.Paper.table6, E.Lock_tables.table6 ~domains:1 ());
              ("Table 7", E.Paper.table7, E.Lock_tables.table7 ());
              ("Table 8", E.Paper.table8, E.Lock_tables.table8 ());
            ]
          in
          List.iter
            (fun (title, paper, rows) -> E.Report.print_lock_table null_fmt ~title ~paper rows)
            tables;
          tables)
    in
    span "csweep" (fun () -> E.Report.print_fig1 ~out:null_fmt ~emit ~domains:1 ());
    let tsp =
      span "tsp" (fun () ->
          let tsp = E.Tsp_experiments.run_all ~spec ~domains:1 () in
          render_tsp ~emit tsp;
          tsp)
    in
    let gate_ok =
      span "ablations" (fun () ->
          let out = null_fmt and domains = 1 in
          E.Report.print_schedulers ~out ~domains ();
          E.Report.print_coupling ~out ~domains ();
          E.Report.print_sampling ~out ~domains ();
          E.Report.print_threshold ~out ~domains ();
          E.Report.print_phases ~out ~domains ();
          E.Report.print_barriers ~out ~domains ();
          E.Report.print_advisory ~out ~domains ();
          E.Report.print_architecture ~out ~domains ();
          E.Report.print_switch_locks ~out ~emit ~domains ())
    in
    span "registry" (fun () -> E.Report.print_objects ~out:null_fmt ~emit ~domains:1 ());
    let artifacts = List.rev !artifacts in
    let outcomes =
      span "catalogue" (fun () -> List.map (Fleet.Catalogue.run_config driver) configs)
    in
    let records =
      List.map2
        (fun config (metrics, payload) ->
          Fleet.Store.make ~spec:smoke.Fleet.Spec.sp_id ~rev ~host
            ~driver:driver.Fleet.Catalogue.d_name ~kind:driver.Fleet.Catalogue.d_kind
            ~config ~metrics ~payload ())
        configs outcomes
    in
    if Sys.file_exists store then Sys.remove store;
    span "store.append" (fun () -> Fleet.Store.append ~path:store records);
    let loaded = span "store.load" (fun () -> Fleet.Store.load ~path:store) in
    let loaded = Result.value loaded ~default:[] in
    let views = span "query" (fun () -> List.map (Fleet.Query.run ~domains:1 loaded) queries) in
    let events = events_since e0 in
    (* At the paper's instance every artifact must match its committed
       bytes; at another instance the TSP figures are new outputs, held
       to pass-to-pass and traced-vs-untraced equality instead. *)
    let compared =
      List.filter
        (fun (name, _) -> paper_instance || not (String.starts_with ~prefix:"fig" name && name <> "fig1.csv"))
        artifacts
    in
    let line r = Fleet.Store.to_line r in
    let adaptive_ns =
      List.fold_left
        (fun acc (t : E.Tsp_experiments.table) ->
          acc + t.E.Tsp_experiments.adaptive_result.Tsp.Parallel.total_ns)
        0 tsp.E.Tsp_experiments.tables
    in
    let nodes =
      List.fold_left
        (fun acc (t : E.Tsp_experiments.table) ->
          acc + t.E.Tsp_experiments.blocking_result.Tsp.Parallel.nodes_expanded
          + t.E.Tsp_experiments.adaptive_result.Tsp.Parallel.nodes_expanded)
        tsp.E.Tsp_experiments.sequential_nodes tsp.E.Tsp_experiments.tables
    in
    let err = lock_err_pct tables in
    let store_bytes = String.length (String.concat "\n" (List.map line records)) + 1 in
    {
      events;
      work = float_of_int events;
      exact =
        [
          ("sched.events", events);
          ("tsp.nodes_expanded", nodes);
          ("vt_tsp_adaptive_ns", adaptive_ns);
          ("vt_lock_err_ppm", Float.to_int (err *. 1e6));
        ];
      digest =
        Digest.string
          (String.concat "\x00" (List.map snd artifacts @ List.map line records @ views));
      checks =
        List.map (fun (name, bytes) -> same_as_committed name bytes) compared
        @ List.map
            (fun r ->
              ( "smoke " ^ r.Fleet.Store.r_hash,
                List.exists (fun c -> line c = line r) committed ))
            records
        @ [
            ("store round trip", List.map line loaded = List.map line records);
            ("switch-lock gate", gate_ok);
          ]
        @ (if paper_instance then
             [
               ("TSP nodes expanded", nodes = paper_tsp_nodes);
               ("adaptive TSP virtual time", adaptive_ns = paper_tsp_adaptive_ns);
             ]
           else [])
        @ List.map2 (fun q (got, want) -> ("view " ^ q, got = want)) smoke_queries
            (List.combine views expected_views);
      counts =
        [
          ("tsp.nodes_expanded", float_of_int nodes);
          ("vt_tsp_adaptive_ms", float_of_int adaptive_ns /. 1e6);
          ("vt_lock_err_pct", err);
          ("store.bytes", float_of_int store_bytes);
        ];
    }

(* ------------------------------------------------------------------ *)
(* soak: the ~10M-event mill on a machine the benchmark owns          *)

let soak_spec = Workloads.Soak.with_rounds 1_950

(* The soak's virtual outcome, a pure function of the spec; the event
   count is the one results/BENCH_results.json records for this run. *)
let soak_expected =
  [ ("sched.events", 10_060_056); ("final_ns", 8_245_332_250); ("checksum", 5_938_498_800) ]

let soak_counters =
  [ "mem.read"; "mem.write"; "mem.atomic"; "sched.switches"; "sched.blocks"; "sched.wakeups" ]

(* One soak run; [subscribed] adds one no-op subscriber to each of the
   four hook buses, which keeps every slice off the fast path. *)
let run_soak ?(subscribed = false) spec =
  let open Butterfly in
  let sim =
    Sched.create { Config.default with Config.processors = spec.Workloads.Soak.processors }
  in
  if subscribed then begin
    Sched.add_event_hook sim ignore;
    Sched.add_access_hook sim ignore;
    Sched.add_annot_hook sim ignore;
    Sched.add_trace_hook sim (fun ~time:_ ~tid:_ _ -> ())
  end;
  let acc = ref 0 in
  Sched.run sim (Workloads.Soak.scenario spec ~acc);
  ("sched.events", Sched.events_executed sim)
  :: ("final_ns", Sched.final_time sim)
  :: ("checksum", !acc)
  :: List.map (fun c -> (c, Engine.Counters.get (Sched.counters sim) c)) soak_counters

let soak ~seed:_ ~out_dir:_ () =
  fun () ->
    let e0 = Butterfly.Sched.domain_events_total () in
    let exact = span "soak.run" (fun () -> run_soak soak_spec) in
    let events = events_since e0 in
    {
      events;
      work = float_of_int events;
      exact;
      digest = Digest.string (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) exact));
      checks = List.map (fun (k, v) -> ("soak " ^ k, List.assoc k exact = v)) soak_expected;
      counts = List.map (fun (k, v) -> (k, float_of_int v)) exact;
    }

(* ------------------------------------------------------------------ *)
(* chaos: the quick swap-fault matrix, then predictive analysis       *)

(* The quick matrix sweeps plan seeds 1 and 2 (offset 0); offset o
   sweeps 2o+1 and 2o+2. A sweep's cost is set by how many runs reach
   the 2M-event budget (0 to 3 across offsets 0-120, so 0.1-7 s) and by
   which scenario does; these offsets match the CI matrix: two budget
   aborts, events within 0.1%, peak memory within 1%. Their host times
   still differ by up to 13%, so a pass sweeps the CI matrix and then
   the seed's offset, which halves that difference. Offset 77, the
   costliest alone, also lifts the pass's peak memory 15% when swept
   after the matrix, so it is left out. *)
let chaos_offsets = [| 41; 46 |]

(* MD5 of the CHAOS_results.json that `repro chaos --quick --swap-faults`
   writes, and of the ANALYSIS_results.json that `repro analyze --predict
   --confirm` writes. The committed results/ files come from runs without
   swap faults and without predict, so they are not the reference. *)
let chaos_quick_swap_md5 = "851d5c3ad65c9935b804922181605004"
let analysis_predict_md5 = "4c83424dc78712b4699b18594de9d433"

let chaos ~seed ~out_dir:_ () =
  let scenarios = Analysis_suite.shipped () in
  let suite = Analysis_suite.all () in
  let o = chaos_offsets.(abs (seed mod Array.length chaos_offsets)) in
  let sweep seeds =
    List.concat_map
      (fun scenario ->
        List.map
          (fun seed ->
            span "chaos.run" (fun () -> Chaos.run_scenario ~swap_faults:true ~scenario ~seed ()))
          seeds)
      scenarios
  in
  fun () ->
    let e0 = Butterfly.Sched.domain_events_total () in
    let matrix, runs =
      span "chaos" (fun () ->
          let matrix = sweep [ 1; 2 ] in
          (matrix, matrix @ sweep [ (2 * o) + 1; (2 * o) + 2 ]))
    in
    let analysis =
      span "analysis" (fun () ->
          Analysis_suite.run_all ~domains:1 ~predict:true ~confirm:true suite)
    in
    let events = events_since e0 in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
    let confirmed =
      List.fold_left
        (fun acc r ->
          acc
          + List.length
              (List.filter
                 (fun p -> p.Analysis_suite.p_status = Some "confirmed")
                 r.Analysis_suite.r_predictions))
        0 analysis
    in
    let aborted = sum (fun r -> if r.Chaos.outcome = "aborted" then 1 else 0) in
    let chaos_events = sum (fun r -> r.Chaos.events) in
    let accesses = sum (fun r -> r.Chaos.accesses) in
    {
      events;
      work = float_of_int events;
      exact =
        [
          ("sched.events", events);
          ("chaos.events", chaos_events);
          ("chaos.accesses", accesses);
          ("chaos.aborted", aborted);
          ("witness.confirmed", confirmed);
        ];
      digest = Digest.string (Chaos.to_json runs ^ Analysis_suite.to_json analysis);
      (* A structured abort is a recovery outcome, not a failure; only
         a broken harness invariant fails a run. *)
      checks =
        List.map
          (fun r ->
            ( Printf.sprintf "chaos %s seed=%d" r.Chaos.scenario r.Chaos.seed,
              r.Chaos.invariant_failures = [] ))
          runs
        @ List.map
            (fun r -> ("analysis " ^ r.Analysis_suite.r_name, Analysis_suite.passed r))
            analysis
        (* Every outcome, abort, diagnostic and prediction must reproduce
           byte for byte what the CLI writes for the same runs. *)
        @ [ ("CHAOS JSON of the quick swap-fault matrix",
             Digest.to_hex (Digest.string (Chaos.to_json matrix)) = chaos_quick_swap_md5);
            ("ANALYSIS JSON with predict and confirm",
             Digest.to_hex (Digest.string (Analysis_suite.to_json analysis)) = analysis_predict_md5) ];
      counts =
        [
          ("chaos.events", float_of_int chaos_events);
          ("chaos.accesses", float_of_int accesses);
          ("witness.confirmed", float_of_int confirmed);
        ];
    }

(* ------------------------------------------------------------------ *)
(* proto: protocol and policy model checking, host only               *)

(* States and edges explored by every shipped and fixture check. *)
let proto_states = 1_128_641
let proto_edges = 3_634_124

let proto ~seed:_ ~out_dir:_ () =
  let module P = Analysis.Proto_check in
  let module PC = Analysis.Policy_check in
  let models = Locks.Proto_models.shipped () in
  let fixtures = Analysis_suite.proto_fixtures () in
  let specs = PC.shipped () in
  let policy_fixtures = Analysis_suite.policy_fixtures () in
  fun () ->
    let e0 = Butterfly.Sched.domain_events_total () in
    let shipped = span "proto_check.shipped" (fun () -> P.check_all ~domains:1 models) in
    let fixture_reports =
      span "proto_check.fixtures" (fun () ->
          List.map (fun (name, model, expect) -> P.check_fixture ~name ~expect model) fixtures)
    in
    let lowered = span "proto_check.lowering" Analysis_suite.proto_lowerings in
    let policy, policy_fixture_reports =
      span "policy_check" (fun () ->
          ( PC.run ~domains:1 specs,
            List.map
              (fun (name, specs, expect) -> PC.check_fixture ~name ~expect specs)
              policy_fixtures ))
    in
    let events = events_since e0 in
    let all_reports =
      shipped @ List.concat_map (fun f -> f.P.f_reports) fixture_reports
    in
    let states = List.fold_left (fun acc r -> acc + r.P.r_states) 0 all_reports in
    let edges = List.fold_left (fun acc r -> acc + r.P.r_edges) 0 all_reports in
    let proto_json = P.to_json ~shipped ~fixtures:fixture_reports ~lowered ^ "\n" in
    let policy_json = PC.to_json ~shipped:policy ~fixtures:policy_fixture_reports ^ "\n" in
    {
      events;
      work = float_of_int states;
      exact =
        [ ("sched.events", events); ("proto_check.states", states); ("proto_check.edges", edges) ];
      digest = Digest.string (proto_json ^ policy_json);
      checks =
        List.map
          (fun r ->
            (Printf.sprintf "property %s/%s" r.P.r_model r.P.r_property, r.P.r_verdict = P.Holds))
          shipped
        @ List.map (fun f -> ("fixture " ^ f.P.f_name, f.P.f_missing = [])) fixture_reports
        @ List.map
            (fun l -> ("lowering " ^ l.P.l_fixture, l.P.l_confirmed && l.P.l_replay_ok))
            lowered
        @ [ ("policy specs clean", PC.clean policy) ]
        @ List.map
            (fun x -> ("policy fixture " ^ x.PC.x_name, x.PC.x_missing = []))
            policy_fixture_reports
        @ [
            same_as_committed "PROTO_results.json" proto_json;
            same_as_committed "POLICY_results.json" policy_json;
            ("states explored", states = proto_states);
            ("edges explored", edges = proto_edges);
          ];
      counts =
        [ ("proto_check.states", float_of_int states); ("proto_check.edges", float_of_int edges) ];
    }

(* Elasticities: the slope of log pass time on log reference time, over
   the passes of ten 32-second runs per workload on the two-vCPU Xeon VM
   while its load phases switched (reference 7.8-14 ms): paper 0.91,
   soak 1.01, chaos 0.88, proto 0.63 (a 260 MB heap of hashed states:
   memory-bound time slows less than the core-bound reference). *)
let all =
  [
    {
      name = "paper";
      seeding =
        "TSP instance seed (the paper's instance 11 at even seeds, where \
         outputs are compared with the committed bytes)";
      elasticity = 0.92;
      setup = paper;
    };
    {
      name = "soak";
      seeding = "none: soak is seed-free by construction";
      elasticity = 1.0;
      setup = soak;
    };
    {
      name = "chaos";
      seeding = "fault-plan seeds of the second sweep (the CI matrix is always the first)";
      elasticity = 0.88;
      setup = chaos;
    };
    {
      name = "proto";
      seeding = "none: proto is seed-free by construction";
      elasticity = 0.63;
      setup = proto;
    };
  ]
