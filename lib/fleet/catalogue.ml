type axis_kind = Int | Enum of string list Lazy.t | Text
type axis = { ax_name : string; ax_kind : axis_kind; ax_default : string }

type outcome = {
  o_metrics : (string * float) list;
  o_payload : string;
  o_text : string;
  o_verdict : string;
  o_ok : bool;
}

type driver = {
  d_name : string;
  d_kind : string;
  d_doc : string;
  d_legacy : string option;
  d_axes : axis list;
  d_run : lookup:(string -> string) -> outcome;
}

let axis name kind default = { ax_name = name; ax_kind = kind; ax_default = default }
let int_of ~lookup name = int_of_string (lookup name)
let bool_of ~lookup name = lookup name = "true"

(* Per-config payload for fleet-native drivers: the config echoed next
   to its metrics (and any [extra] fields) as one canonical JSON line;
   the text printed is empty and there is no gate. *)
let fleet_native ?(extra = []) config metrics =
  let payload =
    Jsonv.to_string
      (Jsonv.canonical
         (Jsonv.Obj
            (("config", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Str v)) config))
            :: ("metrics", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num v)) metrics))
            :: extra)))
  in
  { o_metrics = metrics; o_payload = payload; o_text = ""; o_verdict = ""; o_ok = true }

(* ------------------------------------------------------------------ *)
(* csweep: the Figure-1 workload as a sweepable driver                *)

let csweep_locks =
  [
    ("spin", Locks.Lock.Spin);
    ("backoff", Locks.Lock.Backoff);
    ("blocking", Locks.Lock.Blocking);
    ("combined1", Locks.Lock.Combined 1);
    ("combined10", Locks.Lock.Combined 10);
    ("combined50", Locks.Lock.Combined 50);
    ("advisory", Locks.Lock.Advisory);
    ("adaptive", Locks.Lock.adaptive_default);
  ]

let csweep_driver =
  {
    d_name = "csweep";
    d_kind = "CSWEEP";
    d_doc = "critical-section sweep: threads hammering one lock (Figure 1 workload)";
    d_legacy = None;
    d_axes =
      [
        axis "processors" Int "4";
        axis "threads_per_proc" Int "3";
        axis "iterations" Int "40";
        axis "cs_ns" Int "20000";
        axis "think_ns" Int "30000";
        axis "latency_ratio" Int "4";
        axis "lock" (Enum (lazy (List.map fst csweep_locks))) "spin";
        axis "seed" Int "1";
      ];
    d_run =
      (fun ~lookup ->
        let processors = int_of ~lookup "processors" in
        let ratio = int_of ~lookup "latency_ratio" in
        let machine =
          let base = Butterfly.Config.with_processors processors Butterfly.Config.default in
          {
            base with
            Butterfly.Config.remote_read_ns = base.Butterfly.Config.local_read_ns * ratio;
            remote_write_ns = base.Butterfly.Config.local_write_ns * ratio;
          }
        in
        let spec =
          {
            Workloads.Csweep.processors;
            threads_per_proc = int_of ~lookup "threads_per_proc";
            iterations = int_of ~lookup "iterations";
            cs_ns = int_of ~lookup "cs_ns";
            think_ns = int_of ~lookup "think_ns";
            lock_kind = List.assoc (lookup "lock") csweep_locks;
            seed = int_of ~lookup "seed";
          }
        in
        let r = Workloads.Csweep.run ~machine spec in
        let metrics =
          [
            ("total_ns", float_of_int r.Workloads.Csweep.total_ns);
            ("mean_wait_us", r.Workloads.Csweep.mean_wait_ns /. 1e3);
            ("contended", float_of_int r.Workloads.Csweep.contended);
            ("blocks", float_of_int r.Workloads.Csweep.blocks);
            ("spin_probes", float_of_int r.Workloads.Csweep.spin_probes);
            ("adaptations", float_of_int r.Workloads.Csweep.adaptations);
          ]
        in
        let config =
          List.map
            (fun name -> (name, lookup name))
            [
              "processors"; "threads_per_proc"; "iterations"; "cs_ns"; "think_ns";
              "latency_ratio"; "lock"; "seed";
            ]
        in
        fleet_native config metrics);
  }

(* ------------------------------------------------------------------ *)
(* switch-lock: one cell of the implementation-as-attribute ablation  *)

let switch_variants =
  [
    ("tas", Some Locks.Switch_lock.Tas);
    ("mcs", Some Locks.Switch_lock.Mcs);
    ("blocking", Some Locks.Switch_lock.Blocking);
    ("adaptive", None);
  ]

let switch_driver =
  {
    d_name = "switch-lock";
    d_kind = "SWITCH";
    d_doc = "one cell of the switch-lock ablation: pinned TAS/MCS/blocking or adaptive";
    d_legacy = None;
    d_axes =
      [
        axis "workers" Int "5";
        axis "processors" Int "7";
        axis "iterations" Int "30";
        axis "cs_ns" Int "15000";
        axis "think_ns" Int "8000";
        axis "variant" (Enum (lazy (List.map fst switch_variants))) "adaptive";
      ];
    d_run =
      (fun ~lookup ->
        let processors = int_of ~lookup "processors" in
        let machine =
          Butterfly.Config.with_processors (max 8 processors) Butterfly.Config.default
        in
        let variant = lookup "variant" in
        let r =
          Experiments.Ablations.switch_one ~machine ~point:"fleet"
            ~workers:(int_of ~lookup "workers") ~processors
            ~iterations:(int_of ~lookup "iterations") ~cs_ns:(int_of ~lookup "cs_ns")
            ~think_ns:(int_of ~lookup "think_ns") ~variant
            ~fixed:(List.assoc variant switch_variants)
            ()
        in
        let metrics =
          [
            ("total_ns", float_of_int r.Experiments.Ablations.sw_total_ns);
            ("mean_wait_us", r.Experiments.Ablations.sw_mean_wait_us);
            ("blocks", float_of_int r.Experiments.Ablations.sw_blocks);
            ("spin_probes", float_of_int r.Experiments.Ablations.sw_spin_probes);
            ("swaps", float_of_int r.Experiments.Ablations.sw_swaps);
          ]
        in
        let config =
          List.map
            (fun name -> (name, lookup name))
            [ "workers"; "processors"; "iterations"; "cs_ns"; "think_ns"; "variant" ]
        in
        fleet_native config metrics
          ~extra:[ ("final_impl", Jsonv.Str r.Experiments.Ablations.sw_final_impl) ]);
  }

(* ------------------------------------------------------------------ *)
(* Gated drivers: each is one repro subcommand. A run renders the text
   the subcommand prints and judges its gate; the payload is the
   subcommand's legacy artifact.                                      *)

let bool_axis name = axis name (Enum (lazy [ "false"; "true" ])) "false"

(* [None] when the axis is at its "all" default. *)
let filter ~lookup name = match lookup name with "all" -> None | v -> Some v

(* A Report section rendered to a string, with the artifact it hands to
   its emit hook. *)
let rendered f =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  let artifact = ref ([], "") in
  let ok = f ~out ~emit:(fun ~name:_ ~metrics ~payload -> artifact := (metrics, payload)) in
  Format.pp_print_flush out ();
  let o_metrics, o_payload = !artifact in
  { o_metrics; o_payload; o_text = Buffer.contents buf; o_verdict = ""; o_ok = ok }

let count l = float_of_int (List.length l)

let objects_driver =
  let d = Workloads.Sync_objects.default in
  {
    d_name = "objects";
    d_kind = "OBJECTS";
    d_legacy = Some "OBJECTS_results.json";
    d_doc =
      "Run the sync-objects workload (one of each adaptive object: lock, rw-lock, \
       barrier, condition, semaphore) and dump the adaptive-object registry: per-object \
       samples, policy runs, adaptations, charged cost and transition log. [only] \
       restricts the dump to the object with that registry name.";
    d_axes =
      [
        axis "processors" Int (string_of_int d.Workloads.Sync_objects.processors);
        axis "workers" Int (string_of_int d.Workloads.Sync_objects.workers);
        axis "rounds" Int (string_of_int d.Workloads.Sync_objects.rounds);
        axis "items_each" Int (string_of_int d.Workloads.Sync_objects.items_each);
        axis "seed" Int (string_of_int d.Workloads.Sync_objects.seed);
        axis "only" Text "all";
      ];
    d_run =
      (fun ~lookup ->
        let spec =
          {
            Workloads.Sync_objects.processors = int_of ~lookup "processors";
            workers = int_of ~lookup "workers";
            rounds = int_of ~lookup "rounds";
            items_each = int_of ~lookup "items_each";
            seed = int_of ~lookup "seed";
          }
        in
        let only = filter ~lookup "only" in
        rendered (fun ~out ~emit ->
            Experiments.Report.print_objects ~out ~emit ~spec ?only ();
            true));
  }

let ablation_locks_driver =
  {
    d_name = "ablation-locks";
    d_kind = "ABLATION_LOCKS";
    d_legacy = Some "ABLATION_LOCKS_results.json";
    d_doc =
      "Implementation-as-attribute ablation: the switch lock's contention sweep under \
       each pinned implementation (TAS, MCS queue, blocking) and under the adaptive \
       ladder. Gate: the adaptive variant beats the worst pinned variant at every \
       regime and stays within 5% of the best at the sweep extremes.";
    d_axes = [];
    d_run =
      (fun ~lookup:_ ->
        rendered (fun ~out ~emit -> Experiments.Report.print_switch_locks ~out ~emit ()));
  }

let chaos_driver =
  let shipped () = Analysis_suite.shipped () in
  {
    d_name = "chaos";
    d_kind = "CHAOS";
    d_legacy = Some "CHAOS_results.json";
    d_doc =
      "Chaos harness: sweep seeded, replayable fault plans (memory degradation, stuck \
       modules, processor stalls, thread kills, lock-holder delays; with swap_faults, \
       also faults timed into switch-lock swaps) over the shipped scenarios, with the \
       sanitizers watching and a watchdog turning hangs into structured aborts. [plan] \
       replays one Faults.Fault_plan spec instead. Gate: no invariant failure; each \
       failing run prints a replayable plan and schedule.";
    d_axes =
      [
        axis "scenario"
          (Enum
             (lazy
               ("all" :: List.map (fun s -> s.Analysis_suite.scenario_name) (shipped ()))))
          "all";
        axis "seeds" Int "5";
        axis "plan" Text "";
        bool_axis "swap_faults";
      ];
    d_run =
      (fun ~lookup ->
        let scenarios =
          match filter ~lookup "scenario" with
          | None -> shipped ()
          | Some n -> List.filter (fun s -> s.Analysis_suite.scenario_name = n) (shipped ())
        in
        let results =
          match lookup "plan" with
          | "" ->
            let n = max 1 (int_of ~lookup "seeds") in
            Chaos.sweep ~swap_faults:(bool_of ~lookup "swap_faults")
              ~seeds:(List.init n (fun i -> i + 1)) ~scenarios ()
          | spec ->
            let plan = Faults.Fault_plan.of_string spec in
            List.map (fun s -> Chaos.replay ~scenario:s ~plan) scenarios
        in
        let b = Buffer.create 4096 in
        List.iter
          (fun r ->
            Printf.bprintf b "%-26s seed=%-3d %-9s %s\n" r.Chaos.scenario r.Chaos.seed
              r.Chaos.outcome
              (match r.Chaos.invariant_failures with
              | [] -> "ok"
              | fs -> "FAIL: " ^ String.concat "; " fs))
          results;
        Printf.bprintf b "%s\n" (Chaos.summary_line results);
        let failing = List.filter (fun r -> not (Chaos.passed r)) results in
        let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
        {
          o_metrics =
            [
              ("runs", count results);
              ("failures", count failing);
              ("events", sum (fun r -> r.Chaos.events));
              ("accesses", sum (fun r -> r.Chaos.accesses));
              ("injected", sum (fun r -> List.length r.Chaos.injected));
            ];
          o_payload = Chaos.to_json results;
          o_text = Buffer.contents b;
          o_verdict =
            String.concat ""
              (List.map
                 (fun r ->
                   Printf.sprintf "replay %s seed=%d plan=%s%s\n" r.Chaos.scenario
                     r.Chaos.seed r.Chaos.plan
                     (match r.Chaos.pinned_schedule with
                     | None -> ""
                     | Some s -> " schedule=" ^ s))
                 failing);
          o_ok = failing = [];
        });
  }

let analyze_driver =
  {
    d_name = "analyze";
    d_kind = "ANALYSIS";
    d_legacy = Some "ANALYSIS_results.json";
    d_doc =
      "Run the sanitizers (race detector, lock-order graph, lock-discipline lint) over \
       every example/experiment workload and the seeded scenarios. [predict] also runs \
       the weak-causality predictor (races, deadlocks, lost wakeups reachable in a \
       reordering of the observed run); [confirm] re-executes each prediction under a \
       synthesized schedule for a machine-checked Confirmed/Unconfirmed verdict. \
       [verbose] prints every diagnostic. Gate: every scenario meets its expectation.";
    d_axes = [ bool_axis "predict"; bool_axis "confirm"; bool_axis "verbose" ];
    d_run =
      (fun ~lookup ->
        let confirm = bool_of ~lookup "confirm" in
        let predict = bool_of ~lookup "predict" || confirm in
        let results = Analysis_suite.run_all ~predict ~confirm (Analysis_suite.all ()) in
        let b = Buffer.create 4096 in
        List.iter
          (fun r ->
            Printf.bprintf b "%-26s %s\n" r.Analysis_suite.r_name r.Analysis_suite.r_summary;
            if bool_of ~lookup "verbose" then
              List.iter (Printf.bprintf b "    %s\n") r.Analysis_suite.r_diags;
            List.iter
              (fun p ->
                Printf.bprintf b "    %s%s: %s\n" p.Analysis_suite.p_rule
                  (match p.Analysis_suite.p_status with
                  | None -> ""
                  | Some s -> Printf.sprintf " [%s]" s)
                  p.Analysis_suite.p_description)
              r.Analysis_suite.r_predictions)
          results;
        let failures =
          List.concat_map
            (fun r ->
              List.map
                (Printf.sprintf "FAIL %s: %s\n" r.Analysis_suite.r_name)
                r.Analysis_suite.r_failures)
            results
        in
        {
          o_metrics =
            [
              ("scenarios", count results);
              ("failures", count failures);
              ( "predictions",
                float_of_int
                  (List.fold_left
                     (fun acc r -> acc + List.length r.Analysis_suite.r_predictions)
                     0 results) );
            ];
          o_payload = Analysis_suite.to_json results;
          o_text = Buffer.contents b;
          o_verdict =
            (if failures = [] then "analysis: all scenarios behaved as expected\n"
             else String.concat "" failures);
          o_ok = failures = [];
        });
  }

(* The verdict lines a checker prints after its artifact: [summary] when
   every gate passed, else one line per failed gate. *)
let verdict ~summary gates =
  let failed = List.filter_map (fun (ok, line) -> if ok then None else Some line) gates in
  String.concat "" (List.map (fun l -> l ^ "\n") (if failed = [] then [ summary ] else failed))

let check_policies_driver =
  let module PC = Analysis.Policy_check in
  {
    d_name = "check-policies";
    d_kind = "POLICY";
    d_legacy = Some "POLICY_results.json";
    d_doc =
      "Statically model-check every shipped adaptation-policy spec (thrash cycles, dead \
       configurations, threshold overlaps/inversions, dead hysteresis, guardrail gaps, \
       cross-object conflicts) without running the simulator, then check the \
       seeded-bad fixture specs, each of which must be flagged with its expected \
       finding kinds. [only] restricts the check to one spec or fixture. Gate: shipped \
       specs clean, every fixture flagged.";
    d_axes =
      [
        axis "only"
          (Enum
             (lazy
               ("all"
               :: List.map (fun s -> s.Adaptive_core.Policy.Spec.s_name) (PC.shipped ())
               @ List.map (fun (n, _, _) -> n) (Analysis_suite.policy_fixtures ()))))
          "all";
      ];
    d_run =
      (fun ~lookup ->
        let keep name = match filter ~lookup "only" with None -> true | Some o -> o = name in
        let specs =
          List.filter (fun s -> keep s.Adaptive_core.Policy.Spec.s_name) (PC.shipped ())
        in
        let ((reports, cross) as shipped) = PC.run specs in
        let fixtures =
          Engine.Runner.map
            (fun (name, specs, expect) -> PC.check_fixture ~name ~expect specs)
            (List.filter (fun (n, _, _) -> keep n) (Analysis_suite.policy_fixtures ()))
        in
        let b = Buffer.create 4096 in
        List.iter
          (fun r ->
            Printf.bprintf b "%-22s %-10s %2d configs %2d transitions  %s\n" r.PC.sr_name
              r.PC.sr_kind r.PC.sr_configs r.PC.sr_transitions
              (match r.PC.sr_findings with
              | [] -> "clean"
              | fs -> Printf.sprintf "%d finding(s)" (List.length fs));
            List.iter
              (fun f -> Printf.bprintf b "    [%s] %s\n" f.PC.f_kind f.PC.f_message)
              r.PC.sr_findings)
          reports;
        List.iter
          (fun f -> Printf.bprintf b "conflict [%s] %s\n" f.PC.f_kind f.PC.f_message)
          cross;
        List.iter
          (fun x ->
            Printf.bprintf b "fixture %-22s expects %-38s %s\n" x.PC.x_name
              (String.concat ", " x.PC.x_expected)
              (if x.PC.x_missing = [] then "flagged"
               else "MISSED " ^ String.concat ", " x.PC.x_missing))
          fixtures;
        let findings = List.concat_map (fun r -> r.PC.sr_findings) reports @ cross in
        let shipped_clean = PC.clean shipped in
        let fixtures_ok = List.for_all (fun x -> x.PC.x_missing = []) fixtures in
        {
          o_metrics =
            [
              ("specs", count reports);
              ("findings", count findings);
              ("fixtures", count fixtures);
              ("missed", count (List.concat_map (fun x -> x.PC.x_missing) fixtures));
            ];
          o_payload = PC.to_json ~shipped ~fixtures ^ "\n";
          o_text = Buffer.contents b;
          o_verdict =
            verdict
              ~summary:"policy check: every shipped spec verifies clean; every fixture flagged"
              [
                (shipped_clean, "policy check: FINDINGS on shipped specs");
                (fixtures_ok, "policy check: fixtures MISSED expected findings");
              ];
          o_ok = shipped_clean && fixtures_ok;
        });
  }

let check_protocols_driver =
  let module P = Analysis.Proto_check in
  {
    d_name = "check-protocols";
    d_kind = "PROTO";
    d_legacy = Some "PROTO_results.json";
    d_doc =
      "Exhaustively model-check the concurrency protocols (the quiescence swap, MCS \
       queue handoff, the guardrail streak/cooldown machine) by explicit-state \
       exploration under a one-crash budget: mutual exclusion, no lost sleeper, no \
       double grant, freeze-owned commit, and liveness as absence of wedged states. \
       Then re-check the seeded-bad variants (historical bugs), each of which must \
       produce a counterexample, and lower the counterexamples with a simulator \
       workload to confirmed witness schedules. [only] checks just that model or \
       fixture and skips lowering. Gate: shipped protocols clean, every seeded bug \
       caught, every lowering confirmed.";
    d_axes =
      [
        axis "only"
          (Enum
             (lazy
               ("all"
               :: List.map
                    (fun (m, _) -> Adaptive_core.Protocol.name m)
                    (Locks.Proto_models.shipped ())
               @ List.map (fun (n, _, _) -> n) (Analysis_suite.proto_fixtures ()))))
          "all";
      ];
    d_run =
      (fun ~lookup ->
        let only = filter ~lookup "only" in
        let keep name = match only with None -> true | Some o -> o = name in
        let shipped = P.check_all ?only (Locks.Proto_models.shipped ()) in
        let fixtures =
          Engine.Runner.map
            (fun (name, model, expect) -> P.check_fixture ~name ~expect model)
            (List.filter (fun (n, _, _) -> keep n) (Analysis_suite.proto_fixtures ()))
        in
        let lowered = if only = None then Analysis_suite.proto_lowerings () else [] in
        let b = Buffer.create 4096 in
        List.iter
          (fun r ->
            Printf.bprintf b "%-28s %-20s %8d states %9d edges  %s\n" r.P.r_model
              r.P.r_property r.P.r_states r.P.r_edges
              (match r.P.r_verdict with
              | P.Holds -> "holds"
              | P.Out_of_bounds -> "OUT OF BOUNDS"
              | P.Violated x ->
                Printf.sprintf "VIOLATED (%d-step counterexample: %s)"
                  (List.length x.P.x_steps) x.P.x_why))
          shipped;
        List.iter
          (fun f ->
            Printf.bprintf b "fixture %-24s expects %-42s %s\n" f.P.f_name
              (String.concat ", " f.P.f_expect)
              (if f.P.f_missing = [] then "detected"
               else "MISSED " ^ String.concat ", " f.P.f_missing))
          fixtures;
        List.iter
          (fun l ->
            Printf.bprintf b "lowered %-24s -> %-28s %s (schedule %d, replay %s)\n"
              l.P.l_fixture l.P.l_scenario
              (if l.P.l_confirmed then "Confirmed" else "UNCONFIRMED")
              l.P.l_schedule_len
              (if l.P.l_replay_ok then "bit-for-bit" else "DIVERGED"))
          lowered;
        let confirmed = List.filter (fun l -> l.P.l_confirmed && l.P.l_replay_ok) lowered in
        let shipped_clean = P.clean shipped in
        let fixtures_ok = P.fixtures_ok fixtures in
        let lowered_ok = List.length confirmed = List.length lowered in
        {
          o_metrics =
            [
              ("checks", count shipped);
              ( "violations",
                count
                  (List.filter
                     (fun r -> match r.P.r_verdict with P.Violated _ -> true | _ -> false)
                     shipped) );
              ("fixtures", count fixtures);
              ("missed", count (List.concat_map (fun f -> f.P.f_missing) fixtures));
              ("lowered", count lowered);
              ("confirmed", count confirmed);
            ];
          o_payload = P.to_json ~shipped ~fixtures ~lowered ^ "\n";
          o_text = Buffer.contents b;
          o_verdict =
            verdict
              ~summary:
                "protocol check: every shipped protocol verifies clean; every seeded bug \
                 caught"
              [
                (shipped_clean, "protocol check: VIOLATIONS on shipped protocols");
                (fixtures_ok, "protocol check: fixtures MISSED expected violations");
                (lowered_ok, "protocol check: witness lowering FAILED to confirm");
              ];
          o_ok = shipped_clean && fixtures_ok && lowered_ok;
        });
  }

(* ------------------------------------------------------------------ *)

(* Building the list builds no scenario or model catalogue: those sit
   behind the lazy enums and the run closures. *)
let drivers () =
  [
    csweep_driver; switch_driver; objects_driver; ablation_locks_driver; chaos_driver;
    analyze_driver; check_policies_driver; check_protocols_driver;
  ]

let find name = List.find_opt (fun d -> d.d_name = name) (drivers ())

let validate (spec : Spec.t) =
  match find spec.Spec.sp_driver with
  | None ->
    Error
      (Printf.sprintf "spec %S: unknown driver %S (catalogue: %s)" spec.Spec.sp_id
         spec.Spec.sp_driver
         (String.concat ", " (List.map (fun d -> d.d_name) (drivers ()))))
  | Some d ->
    let check_axis (name, values) =
      match List.find_opt (fun a -> a.ax_name = name) d.d_axes with
      | None ->
        Error
          (Printf.sprintf "spec %S: driver %S has no axis %S (axes: %s)"
             spec.Spec.sp_id d.d_name name
             (String.concat ", " (List.map (fun a -> a.ax_name) d.d_axes)))
      | Some a ->
        let check_value v =
          match a.ax_kind with
          | Int ->
            if int_of_string_opt v = None then
              Error
                (Printf.sprintf "spec %S: axis %S value %S is not an integer"
                   spec.Spec.sp_id name v)
            else Ok ()
          | Text -> Ok ()
          | Enum (lazy allowed) ->
            if List.mem v allowed then Ok ()
            else
              Error
                (Printf.sprintf "spec %S: axis %S value %S not in {%s}"
                   spec.Spec.sp_id name v
                   (String.concat "; " allowed))
        in
        List.fold_left
          (fun acc v -> Result.bind acc (fun () -> check_value v))
          (Ok ()) values
    in
    List.fold_left
      (fun acc ax -> Result.bind acc (fun () -> check_axis ax))
      (Ok ()) spec.Spec.sp_axes

let run d config =
  let lookup name =
    match List.assoc_opt name config with
    | Some v -> v
    | None -> (
      match List.find_opt (fun a -> a.ax_name = name) d.d_axes with
      | Some a -> a.ax_default
      | None -> invalid_arg (Printf.sprintf "driver %s: unknown axis %s" d.d_name name))
  in
  d.d_run ~lookup

let run_config d config =
  let o = run d config in
  (o.o_metrics, o.o_payload)

let record ?spec d config o =
  Store.make ?spec ~driver:d.d_name ~kind:d.d_kind ~config ~metrics:o.o_metrics
    ~payload:o.o_payload ()

let describe () =
  let buf = Buffer.create 512 in
  List.iter
    (fun d ->
      Printf.bprintf buf "%s (kind %s): %s\n" d.d_name d.d_kind d.d_doc;
      List.iter
        (fun a ->
          let kind =
            match a.ax_kind with
            | Int -> "int"
            | Text -> "text"
            | Enum (lazy vs) -> Printf.sprintf "{%s}" (String.concat "|" vs)
          in
          Printf.bprintf buf "  %-16s %-10s default %s\n" a.ax_name kind a.ax_default)
        d.d_axes)
    (drivers ());
  Buffer.contents buf
