module Sched = Butterfly.Sched

type result = {
  scenario : string;
  seed : int;
  plan : string;
  injected : string list;
  outcome : string;
  abort_reason : string option;
  diagnostics : string option;
  sanitizer_diags : string list;
  invariant_failures : string list;
  final_time_ns : int;
  events : int;
  accesses : int;
  pinned_schedule : string option;
}

let passed r = r.invariant_failures = []

let default_horizon_ns = 3_000_000

(* Chaos runs get a much tighter event budget than the simulator's
   400M safety valve: a kill that strands a lock in front of spinning
   waiters is a livelock — the waiters burn events forever and the
   watchdog (correctly) sees progress — and the budget is what turns
   that into a structured Event_limit abort in bounded wall time. An
   order of magnitude above any shipped scenario's normal run. *)
let default_max_events = 2_000_000

(* A kill that actually fired (not a no-op) legitimately strands the
   victim's locks, so the held-at-exit lint is only an invariant on
   kill-free runs. *)
let kill_fired injected =
  List.exists
    (fun line ->
      Engine.Text.contains line " kill tid=" && not (Engine.Text.contains line "(no-op"))
    injected

(* One run under [plan], returning the machine with its result so the
   caller decodes the recorded dispatch schedule only when it reads
   it: to pin a failing run, or to check a controlled re-execution. *)
let run_plan_once ?(max_events = default_max_events) ?control ~scenario ~seed ~plan ()
    =
  let open Analysis_suite in
  let config =
    {
      scenario.config with
      Butterfly.Config.max_events = min scenario.config.Butterfly.Config.max_events max_events;
    }
  in
  let sim = Sched.create config in
  Sched.set_record_schedule sim true;
  (match control with None -> () | Some s -> Sched.set_schedule_control sim s);
  let trace = Analysis.Trace.attach sim in
  let injector = Faults.Injector.install sim ~plan in
  let wrapped () =
    let wd = Monitoring.Watchdog.start ~sched:sim () in
    (try scenario.program ()
     with e ->
       (try Monitoring.Watchdog.stop wd with _ -> ());
       raise e);
    Monitoring.Watchdog.stop wd
  in
  let outcome = Sched.run_outcome sim wrapped in
  let diags = Analysis.sanitize ~names:(Analysis.Trace.thread_names sim) trace in
  let injected = Faults.Injector.applied injector in
  let outcome_str, abort_reason, diagnostics =
    match outcome with
    | Sched.Completed -> ("completed", None, None)
    | Sched.Aborted { reason; diagnostics } ->
      ("aborted", Some (Sched.abort_reason_message reason), Some diagnostics)
  in
  let invariant_failures =
    List.concat
      [
        (match outcome with
        | Sched.Aborted { diagnostics = ""; _ } ->
          [ "aborted run carries no diagnostics" ]
        | _ -> []);
        (match outcome with
        | Sched.Completed when Sched.abort_requested sim <> None ->
          [ "completed with a dangling abort request" ]
        | _ -> []);
        (if
           outcome = Sched.Completed
           && (not (kill_fired injected))
           && List.exists
                (fun d -> d.Analysis.Diag.rule = "lock-held-at-exit")
                diags
         then [ "lock held at exit on a kill-free completed run" ]
         else []);
      ]
  in
  let result =
    {
      scenario = scenario.scenario_name;
      seed;
      plan = Faults.Fault_plan.to_string plan;
      injected;
      outcome = outcome_str;
      abort_reason;
      diagnostics;
      sanitizer_diags = List.map Analysis.Diag.to_string diags;
      invariant_failures;
      final_time_ns = Sched.final_time sim;
      events = Analysis.Trace.events trace;
      accesses = Analysis.Trace.accesses trace;
      pinned_schedule = None;
    }
  in
  (result, sim)

let run_plan ?max_events ~scenario ~seed ~plan () =
  let result, sim = run_plan_once ?max_events ~scenario ~seed ~plan () in
  if passed result then result
  else begin
    (* Pin the failure: re-execute the same plan under the recorded
       dispatch schedule (the witness-replay machinery) and attach the
       decision list only if the failure reproduces bit for bit. *)
    let schedule = Sched.recorded_schedule sim in
    let replayed, replay_sim =
      run_plan_once ?max_events ~control:schedule ~scenario ~seed ~plan ()
    in
    let reproduced =
      Sched.replay_faithful replay_sim schedule
      && replayed.invariant_failures = result.invariant_failures
      && replayed.outcome = result.outcome
      && replayed.final_time_ns = result.final_time_ns
    in
    if reproduced then
      {
        result with
        pinned_schedule =
          Some (String.concat "," (List.map string_of_int schedule));
      }
    else result
  end

let run_scenario ?(horizon_ns = default_horizon_ns) ?swap_faults ~scenario ~seed () =
  (* Mix the scenario name into the plan seed so the sweep doesn't
     replay one fault sequence across the whole catalogue.
     Hashtbl.hash on strings is deterministic, so plans stay
     reproducible from (scenario, seed). *)
  let plan_seed = seed + (1_000_003 * Hashtbl.hash scenario.Analysis_suite.scenario_name) in
  let plan =
    Faults.Fault_plan.generate ?swap_faults ~seed:plan_seed
      ~cfg:scenario.Analysis_suite.config ~horizon_ns ()
  in
  run_plan ~scenario ~seed ~plan ()

let replay ~scenario ~plan = run_plan ~scenario ~seed:(-1) ~plan ()

let sweep ?domains ?horizon_ns ?swap_faults ~seeds ~scenarios () =
  let jobs =
    List.concat_map (fun scenario -> List.map (fun seed -> (scenario, seed)) seeds)
      scenarios
  in
  Engine.Runner.map ?domains
    (fun (scenario, seed) -> run_scenario ?horizon_ns ?swap_faults ~scenario ~seed ())
    jobs

(* -- JSON rendering: a function of the results alone (no host state,
   no wall-clock), so equal runs render equal bytes at any --domains -- *)

open Engine.Text

let json_opt = function
  | None -> "null"
  | Some s -> Printf.sprintf "\"%s\"" (json_escape s)

let result_json r =
  String.concat ",\n"
    [
      Printf.sprintf "      \"scenario\": \"%s\"" (json_escape r.scenario);
      Printf.sprintf "      \"seed\": %d" r.seed;
      Printf.sprintf "      \"plan\": \"%s\"" (json_escape r.plan);
      Printf.sprintf "      \"injected\": %s" (json_string_list r.injected);
      Printf.sprintf "      \"outcome\": \"%s\"" (json_escape r.outcome);
      Printf.sprintf "      \"abort_reason\": %s" (json_opt r.abort_reason);
      Printf.sprintf "      \"diagnostics\": %s" (json_opt r.diagnostics);
      Printf.sprintf "      \"sanitizer_diags\": %s" (json_string_list r.sanitizer_diags);
      Printf.sprintf "      \"invariant_failures\": %s"
        (json_string_list r.invariant_failures);
      Printf.sprintf "      \"final_time_ns\": %d" r.final_time_ns;
      Printf.sprintf "      \"events\": %d" r.events;
      Printf.sprintf "      \"accesses\": %d" r.accesses;
      Printf.sprintf "      \"pinned_schedule\": %s" (json_opt r.pinned_schedule);
    ]

let to_json results =
  let failures = List.filter (fun r -> not (passed r)) results in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"total_runs\": %d,\n" (List.length results));
  Buffer.add_string buf
    (Printf.sprintf "  \"completed\": %d,\n"
       (List.length (List.filter (fun r -> r.outcome = "completed") results)));
  Buffer.add_string buf
    (Printf.sprintf "  \"aborted\": %d,\n"
       (List.length (List.filter (fun r -> r.outcome = "aborted") results)));
  Buffer.add_string buf
    (Printf.sprintf "  \"invariant_failures\": %d,\n" (List.length failures));
  Buffer.add_string buf "  \"runs\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map (fun r -> "    {\n" ^ result_json r ^ "\n    }") results));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let summary_line results =
  let failures = List.filter (fun r -> not (passed r)) results in
  Printf.sprintf "chaos: %d runs, %d completed, %d aborted (structured), %d invariant failure(s)"
    (List.length results)
    (List.length (List.filter (fun r -> r.outcome = "completed") results))
    (List.length (List.filter (fun r -> r.outcome = "aborted") results))
    (List.length failures)
