(* The benchmark executable: one workload per process, at one domain.

     main.exe --workload paper|soak|chaos|proto --seconds S [--seed N]
              [--trace 0|1] [--t0 EPOCH] [--setup-only] [--out DIR]

   --trace 0 runs untraced passes back to back for S seconds and
   reports the end-to-end metrics of BENCHMARK.json; --trace 1
   alternates untraced and traced passes, then runs the per-layer
   probes, and reports the per-layer metrics. Both end with one JSON
   line: {"correct", "attempted", "failed", "metrics"}. Set-up time is
   measured from --t0 (the launcher's clock just before it started this
   process) to the first timed call; --setup-only stops there and
   prints it in host seconds, the reference time (Calib) and at the
   reference speed. End-to-end times are read at the reference speed. Spans and the per-layer profile (Fleet.Store records
   tagged config:layer) go to DIR/<workload>/. See NOTES.md. *)

let workload = ref ""
let seed = ref 0
let seconds = ref nan
let trace = ref 0
let t0 = ref nan
let setup_only = ref false
let out_root = ref ".perfbench_out"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  paper, soak, chaos or proto");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time (required)");
      ("--trace", Arg.Set_int trace, "0|1  untraced end-to-end run, or traced per-layer run");
      ("--t0", Arg.Set_float t0, "EPOCH  launcher clock before this process started");
      ("--setup-only", Arg.Set setup_only, "  print the set-up time and stop");
      ("--out", Arg.Set_string out_root, "DIR  output directory (default .perfbench_out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench/main.exe --workload NAME [options]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt
let now = Unix.gettimeofday

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Every digit: integers exactly, other values round-trip. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: metric names, units and directions                 *)

type metric = { m_name : string; m_unit : string }

let declared section =
  let doc =
    match Work.read_file "BENCHMARK.json" with
    | None -> fail "BENCHMARK.json not found (run from the repository root)"
    | Some s -> ( match Fleet.Jsonv.parse s with Ok v -> v | Error e -> fail "BENCHMARK.json: %s" e)
  in
  let field k v = Option.bind (Fleet.Jsonv.member k v) Fleet.Jsonv.str in
  List.map
    (fun m ->
      match (field "name" m, field "unit" m, field "better" m) with
      | Some m_name, Some m_unit, Some better ->
        (* A name that carries its polarity must agree with the store's
           query layer, so `repro view` ranks the profile the same way. *)
        (match Fleet.Query.higher_is_better m_name with
        | Some h when h <> (better = "higher") ->
          fail "BENCHMARK.json: %s is declared %s but Fleet.Query reads it the other way"
            m_name better
        | _ -> ());
        { m_name; m_unit }
      | _ -> fail "BENCHMARK.json: malformed metric in %s" section)
    (Option.value ~default:[]
       (Option.bind (Fleet.Jsonv.member section doc) Fleet.Jsonv.arr))

(* Peak resident set (VmHWM) of this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match String.split_on_char ':' (input_line ic) with
        | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%f" (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      try scan () with End_of_file -> fail "no VmHWM in /proc/self/status")

(* ------------------------------------------------------------------ *)
(* Passes                                                             *)

type timed = { pass : Work.pass; wall_s : float; alloc_words : float; machines : int }

let machines = ref 0
let () = Butterfly.Sched.at_run_start (fun () -> incr machines)

let timed_pass run =
  let m0 = !machines in
  let w0 = Span.words () in
  let t = now () in
  let pass = run () in
  let wall_s = now () -. t in
  { pass; wall_s; alloc_words = Span.words () -. w0; machines = !machines - m0 }

let traced_pass run i =
  Span.recording := true;
  Span.pass := i;
  Fun.protect
    ~finally:(fun () -> Span.recording := false)
    (fun () -> timed_pass (fun () -> Span.with_span "pass" run))

(* Exact counts and output digests must agree with the first pass:
   repeated passes, and traced against untraced ones. *)
let agreement ~label (reference : Work.pass) passes =
  List.mapi
    (fun i (p : Work.pass) ->
      ( Printf.sprintf "%s %d agrees" label (i + 1),
        p.Work.exact = reference.Work.exact && p.Work.digest = reference.Work.digest ))
    passes

let tally checks =
  (List.length checks, List.length (List.filter (fun (_, ok) -> not ok) checks))

let report_failures checks =
  List.iter
    (fun name -> Printf.printf "FAILED check: %s\n" name)
    (List.sort_uniq compare (List.filter_map (fun (n, ok) -> if ok then None else Some n) checks))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the traced run                                *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v

(* Per traced pass, the summed duration and events of the spans with
   one name; the median over passes. *)
let span_stats spans ~passes name =
  let per_pass =
    List.filter_map
      (fun i ->
        match List.filter (fun s -> s.Span.pass = i) (Span.named spans name) with
        | [] -> None
        | l ->
          Some
            ( List.fold_left (fun a s -> a +. Span.duration s) 0. l,
              List.fold_left (fun a s -> a + s.Span.events) 0 l,
              List.fold_left (fun a s -> a +. Span.self_time spans s) 0. l ))
      passes
  in
  ( median (List.map (fun (d, _, _) -> d) per_pass),
    median
      (List.map (fun (d, e, _) -> if e = 0 then 0. else d *. 1e9 /. float_of_int e) per_pass),
    median (List.map (fun (_, _, s) -> s) per_pass) )

(* A metric's layer is its name up to the first dot; the dotless vt_
   metrics, the paper's virtual-time results, form layer vt. *)
let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> "vt"

(* Every span the workloads record: the metric its median duration
   gives, in the metric's unit, and the metric its host ns per simulated
   event gives. A span's layer is its duration metric's. *)
let span_metrics =
  [
    ("lock_tables", ("lock_tables.host_s", 1.), None);
    ("csweep", ("csweep.host_s", 1.), Some "csweep.event_ns");
    ("tsp", ("tsp.host_s", 1.), Some "tsp.event_ns");
    ("ablations", ("ablations.host_s", 1.), Some "ablations.event_ns");
    ("registry", ("registry.host_s", 1.), None);
    ("catalogue", ("catalogue.run_s", 1.), None);
    ("store.append", ("store.append_s", 1.), None);
    ("store.load", ("store.load_s", 1.), None);
    ("query", ("query.run_ms", 1e3), None);
    ("soak.run", ("sched.soak_s", 1.), None);
    ("chaos", ("chaos.host_s", 1.), Some "chaos.event_ns");
    ("analysis", ("analysis.predict_s", 1.), None);
    ("proto_check.shipped", ("proto_check.shipped_s", 1.), None);
    ("proto_check.fixtures", ("proto_check.fixtures_s", 1.), None);
    ("proto_check.lowering", ("proto_check.lowering_s", 1.), None);
    ("policy_check", ("policy_check.run_ms", 1e3), None);
  ]

let span_layer (_, (metric, _), _) = layer_of metric

(* The A/B arms on the soak, interleaved round by round so host drift
   hits every arm alike; the median of each arm is kept. Every arm must
   reach the same virtual outcome. *)
let soak_arms ~deadline =
  let spec = Workloads.Soak.with_rounds 390 in
  let arm ~fast ~subscribed () =
    Butterfly.Sched.set_fast_paths fast;
    Butterfly.Sched.set_op_fusion fast;
    Fun.protect
      ~finally:(fun () ->
        Butterfly.Sched.set_fast_paths true;
        Butterfly.Sched.set_op_fusion true)
      (fun () ->
        let t = now () in
        let exact = Work.run_soak ~subscribed spec in
        (now () -. t, exact))
  in
  let arms = [ ("on", arm ~fast:true ~subscribed:false); ("off", arm ~fast:false ~subscribed:false);
               ("hooks", arm ~fast:true ~subscribed:true) ] in
  let samples = Hashtbl.create 3 and outcomes = ref [] in
  let rounds = ref 0 in
  while !rounds < 3 || (now () < deadline && !rounds < 15) do
    List.iter
      (fun (name, run) ->
        let dt, exact = run () in
        Hashtbl.add samples name dt;
        outcomes := exact :: !outcomes)
      arms;
    incr rounds
  done;
  let med name = median (Hashtbl.find_all samples name) in
  let events = float_of_int (List.assoc "sched.events" (List.hd !outcomes)) in
  set "fastpath.speedup" (med "off" /. med "on");
  set "hooks.subscribed_event_ns" (med "hooks" *. 1e9 /. events);
  [ ("soak arms agree", List.for_all (( = ) (List.hd !outcomes)) !outcomes) ]

let chaos_tails spans =
  let runs = List.map Span.duration (Span.named spans "chaos.run") in
  let a = Array.of_list runs in
  Array.sort compare a;
  let n = Array.length a in
  (* The highest percentile that still has at least ten runs beyond it. *)
  let pct =
    List.fold_left
      (fun best p ->
        let beyond = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
        if beyond >= 10 then p else best)
      50. [ 50.; 75.; 90.; 95.; 99.; 99.9 ]
  in
  let at p = if n = 0 then 0. else a.(min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)) in
  set "chaos.runs" (float_of_int n);
  set "chaos.p50_run_ms" (at 50. *. 1e3);
  set "chaos.tail_pct" pct;
  set "chaos.tail_run_ms" (at pct *. 1e3)

(* ------------------------------------------------------------------ *)
(* Output                                                             *)

let print_result ~checks metrics =
  let attempted, failed = tally checks in
  report_failures checks;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (m, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_num v) m.m_unit)
          metrics))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let profile_records ~workload ~seed per_layer spans ~passes =
  let layers =
    List.sort_uniq compare
      (List.map (fun m -> layer_of m.m_name) per_layer @ List.map span_layer span_metrics)
  in
  List.filter_map
    (fun layer ->
      let metrics =
        List.filter_map
          (fun m ->
            match Hashtbl.find_opt values m.m_name with
            | Some v when layer_of m.m_name = layer -> Some (m.m_name, v)
            | _ -> None)
          per_layer
      in
      let self_s =
        List.fold_left
          (fun acc ((span, _, _) as sm) ->
            if span_layer sm = layer then
              let _, _, s = span_stats spans ~passes span in
              if Float.is_nan s then acc else acc +. s
            else acc)
          0. span_metrics
      in
      let metrics = if self_s > 0. then ("self_s", self_s) :: metrics else metrics in
      if metrics = [] then None
      else
        Some
          (Fleet.Store.make ~rev:(Experiments.Perf.git_rev ()) ~host:"perfbench"
             ~driver:"perfbench" ~kind:"PROFILE"
             ~config:[ ("layer", layer); ("workload", workload); ("seed", string_of_int seed) ]
             ~metrics ~payload:"" ()))
    layers

(* ------------------------------------------------------------------ *)

let () =
  Engine.Runner.set_default_domains 1;
  let w =
    match List.find_opt (fun w -> w.Work.name = !workload) Work.all with
    | Some w -> w
    | None ->
      fail "unknown --workload %S (one of %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Work.name) Work.all))
  in
  if Float.is_nan !seconds then fail "--seconds is required";
  let end_to_end = declared "end_to_end" and per_layer = declared "per_layer" in
  let out_dir = Filename.concat !out_root w.Work.name in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ !out_root; out_dir ];
  let start = if Float.is_nan !t0 then now () else !t0 in
  let run = w.Work.setup ~seed:!seed ~out_dir () in
  let setup_s = now () -. start in
  if !setup_only then begin
    let r = Calib.sample () in
    Printf.printf "%.9f %.9f %.9f\n" setup_s r
      (Calib.at_reference ~elasticity:Calib.setup_elasticity ~ref:r setup_s);
    exit 0
  end;
  Printf.printf "perfbench: workload %s, seed %d (%s), %gs, trace %d\n%!" w.Work.name !seed
    w.Work.seeding !seconds !trace;
  let t_start = now () in
  let deadline = t_start +. !seconds in
  if !trace = 0 then begin
    (* End-to-end times are read at the reference host speed (Calib):
       set-up at the first reference sample, which follows it, and each
       pass half a second at a time. *)
    let r0 = Calib.sample () in
    Calib.record r0;
    let passes = ref [] in
    let pass () =
      let p, host_s, scaled_s = Calib.time_pass ~elasticity:w.Work.elasticity run in
      passes := (p, host_s, scaled_s) :: !passes
    in
    pass ();
    (* Peak memory of set-up and one pass: later passes only add heap
       fragmentation that depends on how many of them fit the run. *)
    let rss = peak_rss_mb () in
    let mean_s () = (now () -. t_start) /. float_of_int (List.length !passes) in
    while now () +. mean_s () <= deadline do
      pass ()
    done;
    let passes = List.rev !passes in
    let first, _, _ = List.hd passes in
    let show f l = String.concat " " (List.map (fun x -> Printf.sprintf "%.4f" (f x)) l) in
    (* The reference time each pass was read at, as one number. *)
    let read_at (_, h, s) = Calib.reference_s *. ((h /. s) ** (1. /. w.Work.elasticity)) in
    Printf.printf
      "passes: %d\n  host wall_s         %s\n  wall_s at reference %s\n  reference_s read at %s\n"
      (List.length passes)
      (show (fun (_, h, _) -> h) passes)
      (show (fun (_, _, s) -> s) passes)
      (show read_at passes);
    Printf.printf "reference samples: %d, median %.6f s (%.6f s at the reference speed)\n"
      (List.length Calib.clock.Calib.samples)
      (median Calib.clock.Calib.samples) Calib.reference_s;
    List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k (json_num v)) first.Work.counts;
    let checks =
      List.concat_map (fun (p, _, _) -> p.Work.checks) passes
      @ agreement ~label:"pass" first (List.map (fun (p, _, _) -> p) (List.tl passes))
    in
    (* The first pass warms caches and grows the heap; the rest are
       timed. *)
    let timed = match passes with _ :: (_ :: _ as rest) -> rest | l -> l in
    let value = function
      | "setup_s" -> Calib.at_reference ~elasticity:Calib.setup_elasticity ~ref:r0 setup_s
      | "wall_s" -> median (List.map (fun (_, _, s) -> s) timed)
      | "work_per_sec" -> median (List.map (fun (p, _, s) -> p.Work.work /. s) timed)
      | "peak_rss_mb" -> rss
      | m -> fail "no end-to-end measurement named %s" m
    in
    print_result ~checks (List.map (fun m -> (m, value m.m_name)) end_to_end)
  end
  else begin
    (* Half the time for paired untraced/traced passes, the rest for the
       probes. *)
    let half = t_start +. (!seconds /. 2.) in
    let untraced = ref [] and traced = ref [] in
    let i = ref 0 in
    while !i < 1 || now () < half do
      untraced := timed_pass run :: !untraced;
      traced := traced_pass run !i :: !traced;
      incr i
    done;
    let untraced = List.rev !untraced and traced = List.rev !traced in
    let passes = List.init !i Fun.id in
    let first = List.hd untraced in
    let checks =
      List.concat_map (fun p -> p.pass.Work.checks) (untraced @ traced)
      @ agreement ~label:"untraced pass" first.pass (List.map (fun p -> p.pass) (List.tl untraced))
      @ agreement ~label:"traced pass" first.pass (List.map (fun p -> p.pass) traced)
    in
    let spans = Span.all () in
    let events = float_of_int first.pass.Work.events in
    let wall l = median (List.map (fun p -> p.wall_s) l) in
    set "trace.overhead_pct" ((wall traced /. wall untraced -. 1.) *. 100.);
    set "sched.events" events;
    set "sched.machines" (float_of_int first.machines);
    if events > 0. then begin
      set "sched.event_ns" (wall untraced *. 1e9 /. events);
      set "sched.alloc_words_per_event" (median (List.map (fun p -> p.alloc_words) untraced) /. events)
    end;
    List.iter (fun (k, v) -> set k v) first.pass.Work.counts;
    (* Span-derived metrics: the median over traced passes of a span's
       duration, in the metric's unit, and of its host ns per event. *)
    List.iter
      (fun (span, (metric, scale), event) ->
        if Span.named spans span <> [] then begin
          let d, ns_per_event, _ = span_stats spans ~passes span in
          set metric (d *. scale);
          Option.iter (fun e -> set e ns_per_event) event
        end)
      span_metrics;
    Option.iter
      (fun bytes ->
        set "store.append_mb_per_sec" (bytes /. 1e6 /. Hashtbl.find values "store.append_s");
        set "store.load_mb_per_sec" (bytes /. 1e6 /. Hashtbl.find values "store.load_s"))
      (Hashtbl.find_opt values "store.bytes");
    if Span.named spans "chaos.run" <> [] then chaos_tails spans;
    let pq = Probe.pqueue () in
    set "pqueue.op_ns" pq.Probe.ns_per_op;
    set "pqueue.r2" pq.Probe.r2;
    let mem = Probe.memory_try_reserve () in
    set "memory.try_reserve_ns" mem.Probe.ns_per_op;
    set "memory.r2" mem.Probe.r2;
    let checks = if w.Work.name = "soak" then checks @ soak_arms ~deadline else checks in
    (* Spans and the profile land in the workload's output directory. *)
    write_file (Filename.concat out_dir "spans.json") (Span.to_chrome_json spans);
    let profile = Filename.concat out_dir "profile.jsonl" in
    if Sys.file_exists profile then Sys.remove profile;
    Fleet.Store.append ~path:profile
      (profile_records ~workload:w.Work.name ~seed:!seed per_layer spans ~passes);
    let walls l = String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" p.wall_s) l) in
    Printf.printf "untraced wall_s %s\ntraced wall_s   %s\nspans and profile in %s\n"
      (walls untraced) (walls traced) out_dir;
    List.iter
      (fun ((span, _, _) as sm) ->
        match Span.named spans span with
        | [] -> ()
        | _ ->
          let d, _, s = span_stats spans ~passes span in
          Printf.printf "  %-22s %-12s %9.4f s  self %9.4f s\n" span (span_layer sm) d s)
      span_metrics;
    (* A layer the workload never reaches reads 0. *)
    print_result ~checks
      (List.map (fun m -> (m, Option.value ~default:0. (Hashtbl.find_opt values m.m_name))) per_layer)
  end
