open Butterfly
open Cthreads

type expect = Clean | Flags of string list

type scenario = {
  scenario_name : string;
  config : Config.t;
  program : unit -> unit;
  expect : expect;
  predicts : string list;
}

let config ?(seed = 11) processors =
  { Config.default with Config.processors; seed }

(* A correct program exercising every Cthreads primitive, with shared
   data protected three different ways: a condition-guarded slot
   (lockset), a barrier-separated array (pure happens-before — this is
   the scenario that breaks if any vector-clock edge goes missing) and
   a semaphore-limited section over a mutex-guarded counter. *)
let primitives () =
  (* producer/consumer through one slot *)
  let mu = Spin.create ~node:0 () in
  let slot_full = Condition.create ~node:0 () in
  let slot_empty = Condition.create ~node:0 () in
  let slot = Ops.alloc1 ~node:0 () in
  let producer =
    Cthread.fork ~name:"producer" ~proc:1 (fun () ->
        for v = 1 to 6 do
          Cthread.work 8_000;
          Spin.lock mu;
          while Ops.read slot <> 0 do
            Condition.wait slot_empty mu
          done;
          Ops.write slot v;
          Condition.signal slot_full;
          Spin.unlock mu
        done)
  in
  let consumer =
    Cthread.fork ~name:"consumer" ~proc:2 (fun () ->
        for _ = 1 to 6 do
          Spin.lock mu;
          while Ops.read slot = 0 do
            Condition.wait slot_full mu
          done;
          Ops.write slot 0;
          Condition.signal slot_empty;
          Spin.unlock mu
        done)
  in
  Cthread.join_all [ producer; consumer ];
  (* barrier-separated neighbour exchange *)
  let n = 3 in
  let cells = Ops.alloc ~node:0 n in
  let barrier = Barrier.create ~node:0 n in
  let sum = ref 0 in
  let exchanger i () =
    Ops.write cells.(i) (100 + i);
    Barrier.await barrier;
    sum := !sum + Ops.read cells.((i + 1) mod n)
  in
  let ts =
    List.init n (fun i ->
        Cthread.fork ~name:(Printf.sprintf "cell%d" i) ~proc:(1 + i) (exchanger i))
  in
  Cthread.join_all ts;
  (* semaphore-limited critical work *)
  let sem = Semaphore.create ~node:0 2 in
  let counter_mu = Spin.create ~node:0 () in
  let counter = Ops.alloc1 ~node:0 () in
  let bump_under_sem _i () =
    Semaphore.acquire sem;
    Cthread.work 5_000;
    Spin.lock counter_mu;
    Ops.write counter (Ops.read counter + 1);
    Spin.unlock counter_mu;
    Semaphore.release sem
  in
  let ts =
    List.init 4 (fun i ->
        Cthread.fork ~name:(Printf.sprintf "sem%d" i) ~proc:(1 + (i mod 3))
          (bump_under_sem i))
  in
  Cthread.join_all ts

(* The switch lock, shipped shape: the implementation ladder under a
   contention ramp (tas -> mcs under queue pressure, back to tas when
   it drains), then a sleeper kicked awake and migrated across an
   explicit blocking -> mcs swap — the quiescence protocol's own
   negative control for the swap-window predictor, which must stay
   silent on every window this program opens. *)
let switch_lock_program () =
  let module L = Locks.Lock_core in
  let lk = L.create ~name:"switch-adaptive" ~impl:L.Ladder ~home:0 () in
  let worker i =
    Cthread.fork ~name:(Printf.sprintf "sw%d" i) ~proc:(1 + (i mod 3)) (fun () ->
        for _ = 1 to 8 do
          L.lock lk;
          Cthread.work 18_000;
          L.unlock lk;
          Cthread.delay 3_000
        done)
  in
  Cthread.join_all (List.init 5 worker);
  for _ = 1 to 6 do
    L.lock lk;
    Cthread.work 2_000;
    L.unlock lk;
    Cthread.delay 5_000
  done;
  (* a sleeper kicked awake and migrated across a live swap window *)
  let mg = L.create ~name:"switch-migrate" ~impl:(L.Swappable L.Blocking) ~home:1 () in
  let swapper =
    Cthread.fork ~name:"swapper" ~proc:1 (fun () ->
        L.lock mg;
        let rec settle n =
          if n > 0 && L.waiting_now mg < 1 then begin
            Cthread.delay 20_000;
            settle (n - 1)
          end
        in
        settle 200;
        Cthread.delay 150_000;
        ignore (L.swap_to mg L.Mcs);
        Cthread.work 30_000;
        L.unlock mg)
  in
  let sleeper =
    Cthread.fork ~name:"sleeper" ~proc:2 (fun () ->
        L.lock mg;
        Cthread.work 10_000;
        L.unlock mg)
  in
  Cthread.join swapper;
  Cthread.join sleeper

let csweep_spec kind =
  {
    Workloads.Csweep.default with
    Workloads.Csweep.processors = 4;
    threads_per_proc = 2;
    iterations = 8;
    cs_ns = 12_000;
    lock_kind = kind;
  }

let phased_spec =
  {
    Workloads.Phased.default with
    Workloads.Phased.processors = 4;
    workers = 6;
    phases =
      [
        { Workloads.Phased.active_threads = 1; cs_ns = 5_000; entries = 30 };
        { Workloads.Phased.active_threads = 6; cs_ns = 200_000; entries = 6 };
        { Workloads.Phased.active_threads = 1; cs_ns = 5_000; entries = 30 };
      ];
  }

(* Small enough to trace and chaos-sweep, big enough that every
   adaptive-object family still reconfigures at least once. *)
let sync_objects_spec =
  {
    Workloads.Sync_objects.default with
    Workloads.Sync_objects.processors = 6;
    workers = 4;
    rounds = 6;
    items_each = 2;
  }

let client_server_spec sched handoff_to_server =
  {
    Workloads.Client_server.default with
    Workloads.Client_server.processors = 4;
    clients = 4;
    requests_per_client = 5;
    sched;
    handoff_to_server;
  }

let tsp_spec lock_kind =
  { Tsp.Parallel.default_spec with Tsp.Parallel.cities = 8; searchers = 3; lock_kind }

let shipped () =
  let clean scenario_name (config, program) =
    { scenario_name; config; program; expect = Clean; predicts = [] }
  in
  let csweep name kind = clean ("csweep-" ^ name) (Workloads.Csweep.scenario (csweep_spec kind)) in
  let client_server name sched handoff =
    clean ("client-server-" ^ name)
      (Workloads.Client_server.scenario (client_server_spec sched handoff))
  in
  let tsp name impl kind = clean ("tsp-" ^ name) (Tsp.Parallel.scenario ~impl (tsp_spec kind)) in
  [
    clean "primitives" (config 4, primitives);
    csweep "spin" Locks.Lock.Spin;
    csweep "blocking" Locks.Lock.Blocking;
    csweep "combined10" (Locks.Lock.Combined 10);
    csweep "adaptive" Locks.Lock.adaptive_default;
    clean "phased-adaptive" (Workloads.Phased.scenario phased_spec);
    clean "sync-objects" (Workloads.Sync_objects.scenario sync_objects_spec);
    clean "switch-lock" (config 4 ~seed:53, switch_lock_program);
    client_server "fcfs" Locks.Lock_sched.Fcfs false;
    client_server "priority" Locks.Lock_sched.Priority false;
    client_server "handoff" Locks.Lock_sched.Handoff true;
    tsp "centralized" Tsp.Parallel.Centralized Locks.Lock.Blocking;
    tsp "distributed" Tsp.Parallel.Distributed Locks.Lock.Blocking;
    tsp "balanced" Tsp.Parallel.Balanced Tsp.Parallel.tsp_adaptive_kind;
  ]

let buggy () =
  let scenario ?(predicts = []) name program expect =
    {
      scenario_name = "buggy-" ^ name;
      config = config Workloads.Buggy.processors;
      program;
      expect = Flags expect;
      predicts;
    }
  in
  [
    (* racy-counter and deadlock carry their bug on the observed trace
       too, so the predictor re-finding it is a true positive. *)
    scenario "racy-counter" ~predicts:[ "predicted-race" ] Workloads.Buggy.racy_counter
      [ "data-race" ];
    scenario "lock-order" Workloads.Buggy.lock_order_inversion [ "lock-order-cycle" ];
    scenario "deadlock" ~predicts:[ "predicted-deadlock" ] Workloads.Buggy.true_deadlock
      [ "lock-order-cycle"; "deadlock" ];
    scenario "double-unlock" Workloads.Buggy.double_unlock [ "unlock-not-held" ];
    scenario "exit-holding" Workloads.Buggy.exit_while_holding [ "lock-held-at-exit" ];
    scenario "sleep-with-spin-lock" Workloads.Buggy.sleep_with_spin_lock
      [ "block-holding-spin-lock" ];
  ]

(* Seeded bugs only a reordering manifests: the observed-trace
   sanitizers must stay quiet (or, for the lock-order pair, report
   only the potential), the predictor must name the bug, and witness
   replay must confirm it. [gated-order] is the negative control:
   its observed-trace cycle is the classic false positive, and the
   predictor must report nothing at all. *)
let predict_only () =
  let scenario ?(expect = Clean) name program predicts =
    {
      scenario_name = "predicted-" ^ name;
      config = config Workloads.Buggy.processors;
      program;
      expect;
      predicts;
    }
  in
  [
    scenario "hidden-race" Workloads.Buggy.hidden_race [ "predicted-race" ];
    scenario "stale-hint" Workloads.Buggy.stale_hint_race [ "predicted-race" ];
    scenario "latent-deadlock"
      ~expect:(Flags [ "lock-order-cycle" ])
      Workloads.Buggy.latent_deadlock [ "predicted-deadlock" ];
    scenario "lost-wakeup" Workloads.Buggy.lost_wakeup [ "predicted-lost-wakeup" ];
    scenario "gated-order"
      ~expect:(Flags [ "lock-order-cycle" ])
      Workloads.Buggy.gated_order [];
    (* The swap-window pair carries its bug on the observed schedule
       (a wedged join / a crashed unlock); the swap-window rules must
       name the protocol violation and witness replay must confirm. *)
    scenario "swap-lost-waiter"
      ~expect:(Flags [ "deadlock" ])
      Workloads.Buggy.swap_lost_waiter [ "predicted-swap-lost-waiter" ];
    scenario "swap-double-grant"
      ~expect:(Flags [ "unlock-not-held" ])
      Workloads.Buggy.swap_double_grant [ "predicted-swap-double-grant" ];
  ]

let all () = shipped () @ buggy () @ predict_only ()

(* -- seeded-bad policy specs: positive controls for the static policy
   checker. Pure data, no simulation; each triggers a specific finding
   kind while every shipped spec checks clean. -- *)

let policy_fixtures () =
  let module Spec = Adaptive_core.Policy.Spec in
  let cost = Adaptive_core.Cost.reads_writes 1 1 in
  let trans ?(repeats = 1) t_from cond t_target t_label =
    {
      Spec.t_from;
      t_cond = cond;
      t_target;
      t_label;
      t_repeats = repeats;
      t_cost = cost;
    }
  in
  let base name ~metric ~monotone ~configs ~initial ~transitions =
    {
      Spec.s_name = name;
      s_kind = "fixture";
      s_attribute = name ^ ".attr";
      s_metric = metric;
      s_monotone = monotone;
      s_configs = List.map (fun (n, v) -> { Spec.c_name = n; c_value = v }) configs;
      s_initial = initial;
      s_transitions = transitions;
      s_guard = None;
    }
  in
  (* A barrier whose spin-more threshold sits above its spin-less one:
     any spread in the overlap band enables both directions and the
     budget ladder cycles at its top forever. *)
  let thrasher =
    Cthreads.Adaptive_barrier.policy_spec ~name:"fixture-thrashing-barrier"
      ~spin_if_under:2_000_000 ~block_if_over:1_000_000 ()
  in
  (* A mode the transition system can never enter. *)
  let dead =
    base "fixture-dead-config" ~metric:"queue-depth" ~monotone:Spec.Up_at_high
      ~configs:[ ("idle", 0); ("busy", 1); ("turbo", 2) ]
      ~initial:0
      ~transitions:
        [
          trans 0 (Spec.cond 1) 1 "busy";
          trans 1 (Spec.cond 0 ~hi:0) 0 "idle";
        ]
  in
  (* Up/down thresholds plugged in backwards for the declared
     up-at-low-metric polarity. *)
  let inverted =
    base "fixture-inverted-thresholds" ~metric:"wait-ns" ~monotone:Spec.Up_at_low
      ~configs:[ ("block", 0); ("spin", 1) ]
      ~initial:0
      ~transitions:
        [
          trans 0 (Spec.cond 10) 1 "spin";
          trans 1 (Spec.cond 0 ~hi:5) 0 "block";
        ]
  in
  (* A hysteretic transition fully shadowed by a higher-priority one:
     its counter can never advance, and its target mode dies with it. *)
  let shadowed =
    base "fixture-shadowed-hysteresis" ~metric:"misses" ~monotone:Spec.Unordered
      ~configs:[ ("small", 0); ("medium", 1); ("large", 2) ]
      ~initial:0
      ~transitions:
        [
          trans 0 (Spec.cond 1) 1 "medium";
          trans ~repeats:4 0 (Spec.cond 3 ~hi:8) 2 "large";
          trans 1 (Spec.cond 0 ~hi:0) 0 "small";
        ]
  in
  (* A guard whose metric clamp cuts off the only transition: the
     policy can never fire and one fallback parks it for good. *)
  let clamped_out =
    {
      (base "fixture-clamped-out" ~metric:"backlog" ~monotone:Spec.Up_at_high
         ~configs:[ ("calm", 0); ("boost", 1) ]
         ~initial:0
         ~transitions:[ trans 0 (Spec.cond 20) 1 "boost" ])
      with
      Spec.s_guard =
        Some
          {
            Spec.g_clamp_lo = 0;
            g_clamp_hi = 10;
            g_limit = 4;
            g_cooldown = 8;
            g_fallback = 0;
            g_fallback_label = "fallback";
            g_fallback_cost = cost;
          };
    }
  in
  (* Two well-formed specs co-writing one attribute with opposite
     reactions: each is stable alone, together they pass the attribute
     back and forth while neither metric moves. *)
  let ping =
    {
      (base "fixture-ping" ~metric:"queue-depth" ~monotone:Spec.Up_at_high
         ~configs:[ ("off", 0); ("on", 1) ]
         ~initial:0
         ~transitions:[ trans 0 (Spec.cond 5) 1 "on" ])
      with
      Spec.s_attribute = "fixture.shared-mode";
    }
  in
  let pong =
    {
      (base "fixture-pong" ~metric:"idle-ns" ~monotone:Spec.Up_at_low
         ~configs:[ ("off", 0); ("on", 1) ]
         ~initial:1
         ~transitions:[ trans 1 (Spec.cond 3) 0 "off" ])
      with
      Spec.s_attribute = "fixture.shared-mode";
    }
  in
  (* The real switch-lock implementation ladder with a guardrail clamp
     sized one short of the blocking region: blocking stays declared
     but the clamped metric can never reach the [>= 100] band that
     earns it. *)
  let impl_clamped =
    let spec = Locks.Lock_core.impl_ladder_spec ~name:"fixture-clamped-out-impl" () in
    {
      spec with
      Spec.s_guard =
        Option.map (fun g -> { g with Spec.g_clamp_hi = 99 }) spec.Spec.s_guard;
    }
  in
  (* The same ladder with its per-transition hysteresis stripped: every
     swap fires on a single enabling sample, so any metric blip opens a
     full quiescence window. *)
  let impl_trigger_happy =
    Locks.Lock_core.impl_ladder_spec
      ~params:{ Locks.Lock_core.default_params with Locks.Lock_core.repeats = 1 }
      ~name:"fixture-swap-no-hysteresis" ()
  in
  (* A guarded one-way switch and a peer that turns the same attribute
     on. Each is clean alone, and their transitions never oppose each
     other; the fight is in the guard: while the sensor reads out of
     range, every fallback turns the attribute off and the peer turns
     it back on. *)
  let guarded_switch =
    {
      (base "fixture-guarded-switch" ~metric:"sensor-reading" ~monotone:Spec.Up_at_high
         ~configs:[ ("off", 0); ("on", 1) ]
         ~initial:0
         ~transitions:[ trans ~repeats:2 0 (Spec.cond 5) 1 "on" ])
      with
      Spec.s_attribute = "fixture.shared-level";
      s_guard =
        Some
          {
            Spec.g_clamp_lo = 0;
            g_clamp_hi = 10;
            g_limit = 2;
            g_cooldown = 2;
            g_fallback = 0;
            g_fallback_label = "sensor-fallback";
            g_fallback_cost = cost;
          };
    }
  in
  let peer =
    {
      (base "fixture-level-peer" ~metric:"backlog" ~monotone:Spec.Up_at_high
         ~configs:[ ("off", 0); ("on", 1) ]
         ~initial:0
         ~transitions:[ trans 0 (Spec.cond 3) 1 "on" ])
      with
      Spec.s_attribute = "fixture.shared-level";
    }
  in
  [
    ("thrashing-barrier", [ thrasher ], [ "thrash-cycle" ]);
    ("dead-config", [ dead ], [ "dead-config" ]);
    ("inverted-thresholds", [ inverted ], [ "threshold-inverted" ]);
    ("shadowed-hysteresis", [ shadowed ], [ "hysteresis-dead"; "dead-config" ]);
    ("clamped-out-guard", [ clamped_out ], [ "guardrail-gap" ]);
    ("conflicting-pair", [ ping; pong ], [ "cross-object-conflict" ]);
    ("clamped-out-impl", [ impl_clamped ], [ "impl-clamped-out" ]);
    ("swap-no-hysteresis", [ impl_trigger_happy ], [ "swap-no-hysteresis" ]);
    ("guard-fights-peer", [ guarded_switch; peer ], [ "cross-object-conflict" ]);
  ]

(* -- seeded-bad protocol models: positive controls for the protocol
   model checker, plus the lowering of their counterexamples into the
   simulator via the existing swap-window workloads. -- *)

let proto_fixtures () = Locks.Proto_models.seeded_bad ()

let proto_lowerings () =
  (* Two of the four seeded protocol bugs have a simulator workload
     that manifests the same violation, so their model counterexamples
     lower to replayable witness schedules: run the workload under the
     predictive pass with confirmation on and record the witness. The
     stolen-freeze and no-age-out fixtures stay model-only — their
     bugs live in code paths the seeded workloads cannot reach without
     reintroducing the bug itself. *)
  let lower l_fixture l_scenario program l_rule =
    let p =
      Analysis.check_predictive ~confirm:true
        (config Workloads.Buggy.processors)
        program
    in
    match
      List.find_opt (fun c -> c.Analysis.rule = l_rule) (Analysis.confirmed p)
    with
    | Some { Analysis.witness = Some w; _ } ->
      {
        Analysis.Proto_check.l_fixture;
        l_scenario;
        l_rule;
        l_confirmed = w.Analysis.Witness.w_status = Analysis.Witness.Confirmed;
        l_replay_ok = w.Analysis.Witness.w_replay_ok;
        l_schedule_len = List.length w.Analysis.Witness.w_schedule;
      }
    | _ ->
      {
        Analysis.Proto_check.l_fixture;
        l_scenario;
        l_rule;
        l_confirmed = false;
        l_replay_ok = false;
        l_schedule_len = 0;
      }
  in
  [
    lower "lost-sleeper-on-swap" "predicted-swap-lost-waiter"
      Workloads.Buggy.swap_lost_waiter "predicted-swap-lost-waiter";
    lower "double-grant-on-swap" "predicted-swap-double-grant"
      Workloads.Buggy.swap_double_grant "predicted-swap-double-grant";
  ]

let check s = Analysis.check s.config s.program

let verdict s report =
  match s.expect with
  | Clean ->
    if Analysis.clean report then Ok ()
    else
      Error
        (Printf.sprintf "expected a clean report, got: %s" (Analysis.summary report))
  | Flags rules ->
    let seen = List.map (fun d -> d.Analysis.Diag.rule) report.Analysis.diags in
    let missing = List.filter (fun r -> not (List.mem r seen)) rules in
    if missing = [] then Ok ()
    else
      Error
        (Printf.sprintf "expected rule(s) %s, got: %s"
           (String.concat ", " missing)
           (Analysis.summary report))

(* {2 The suite runner behind [repro analyze]} *)

type prediction_outcome = {
  p_rule : string;
  p_description : string;
  p_status : string option;
  p_schedule : int list;
}

type result = {
  r_name : string;
  r_summary : string;
  r_diags : string list;
  r_predictions : prediction_outcome list;
  r_failures : string list;
}

let passed r = r.r_failures = []

let prediction_outcome (p : Analysis.predicted) =
  {
    p_rule = p.Analysis.rule;
    p_description = p.Analysis.description;
    p_status =
      Option.map
        (fun w -> Analysis.Witness.status_name w.Analysis.Witness.w_status)
        p.Analysis.witness;
    p_schedule =
      (match p.Analysis.witness with
      | Some w when w.Analysis.Witness.w_status = Analysis.Witness.Confirmed ->
        w.Analysis.Witness.w_schedule
      | _ -> []);
  }

let run_scenario ?(predict = false) ?(confirm = false) s =
  let report, predictions =
    if predict || confirm then begin
      let pv = Analysis.check_predictive ~confirm s.config s.program in
      (pv.Analysis.observed, pv.Analysis.predictions)
    end
    else (check s, [])
  in
  let observed_failure =
    match verdict s report with Ok () -> [] | Error e -> [ e ]
  in
  let predicted_rules = List.map (fun p -> p.Analysis.rule) predictions in
  let missing_predictions =
    if predict || confirm then
      List.filter_map
        (fun rule ->
          if List.mem rule predicted_rules then None
          else Some (Printf.sprintf "expected prediction %s never made" rule))
        s.predicts
    else []
  in
  let confirmation_failures =
    if confirm then
      (* every promised prediction must survive witness replay... *)
      List.filter_map
        (fun rule ->
          let confirmed =
            List.exists
              (fun (p : Analysis.predicted) ->
                p.Analysis.rule = rule
                &&
                match p.Analysis.witness with
                | Some w -> w.Analysis.Witness.w_status = Analysis.Witness.Confirmed
                | None -> false)
              predictions
          in
          if confirmed then None
          else Some (Printf.sprintf "prediction %s was not confirmed" rule))
        s.predicts
      (* ...and nothing beyond the promises may confirm: a Confirmed
         finding on a scenario that doesn't declare it is a false
         positive by definition, the thing witness replay exists to
         rule out. *)
      @ List.filter_map
          (fun (p : Analysis.predicted) ->
            match p.Analysis.witness with
            | Some w
              when w.Analysis.Witness.w_status = Analysis.Witness.Confirmed
                   && not (List.mem p.Analysis.rule s.predicts) ->
              Some
                (Printf.sprintf "unexpected confirmed prediction: %s"
                   p.Analysis.description)
            | _ -> None)
          predictions
    else []
  in
  {
    r_name = s.scenario_name;
    r_summary = Analysis.summary report;
    r_diags = List.map Analysis.Diag.to_string report.Analysis.diags;
    r_predictions = List.map prediction_outcome predictions;
    r_failures = observed_failure @ missing_predictions @ confirmation_failures;
  }

let run_all ?domains ?(predict = false) ?(confirm = false) scenarios =
  Engine.Runner.map ?domains (fun s -> run_scenario ~predict ~confirm s) scenarios

(* -- JSON rendering, hand-rolled like Chaos.to_json: deterministic
   bytes, no host state -- *)

open Engine.Text

let json_int_list l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

let prediction_json p =
  Printf.sprintf
    "{ \"rule\": \"%s\", \"status\": %s, \"description\": \"%s\", \
     \"replay_schedule\": %s }"
    (json_escape p.p_rule)
    (match p.p_status with
    | None -> "null"
    | Some s -> Printf.sprintf "\"%s\"" (json_escape s))
    (json_escape p.p_description)
    (json_int_list p.p_schedule)

let result_json r =
  String.concat ",\n"
    [
      Printf.sprintf "      \"scenario\": \"%s\"" (json_escape r.r_name);
      Printf.sprintf "      \"summary\": \"%s\"" (json_escape r.r_summary);
      Printf.sprintf "      \"diagnostics\": %s" (json_string_list r.r_diags);
      Printf.sprintf "      \"predictions\": [%s]"
        (String.concat ", " (List.map prediction_json r.r_predictions));
      Printf.sprintf "      \"failures\": %s" (json_string_list r.r_failures);
    ]

let to_json results =
  let failures = List.filter (fun r -> not (passed r)) results in
  let confirmed =
    List.concat_map
      (fun r ->
        List.filter (fun p -> p.p_status = Some "confirmed") r.r_predictions)
      results
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"scenarios\": %d,\n" (List.length results));
  Buffer.add_string buf
    (Printf.sprintf "  \"predictions\": %d,\n"
       (List.fold_left (fun n r -> n + List.length r.r_predictions) 0 results));
  Buffer.add_string buf
    (Printf.sprintf "  \"confirmed\": %d,\n" (List.length confirmed));
  Buffer.add_string buf
    (Printf.sprintf "  \"failures\": %d,\n" (List.length failures));
  Buffer.add_string buf "  \"results\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map (fun r -> "    {\n" ^ result_json r ^ "\n    }") results));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
