(* Tests of the adaptive-object framework: costs, attributes
   (mutability/ownership), sensors (sampling rate), policies, and the
   feedback loop. *)

open Butterfly
module Cost = Adaptive_core.Cost
module Attribute = Adaptive_core.Attribute
module Sensor = Adaptive_core.Sensor
module Policy = Adaptive_core.Policy
module Adaptive = Adaptive_core.Adaptive
module Registry = Adaptive_core.Registry

(* The loop's metrics as the registry reports them; the run registers
   exactly one object. *)
let registry_stats () =
  match Registry.snapshot () with
  | [ m ] -> m.Registry.stats
  | ms -> Alcotest.failf "expected one registered object, got %d" (List.length ms)

let cfg = { Config.default with Config.processors = 4; contention = false }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec find i = i + n <= m && (String.sub s i n = sub || find (i + 1)) in
  find 0

let test_cost_algebra () =
  let a = Cost.make ~reads:1 ~writes:2 ~instrs:10 () in
  let b = Cost.reads_writes 3 4 in
  let c = Cost.( + ) a b in
  Alcotest.(check int) "reads add" 4 c.Cost.reads;
  Alcotest.(check int) "writes add" 6 c.Cost.writes;
  Alcotest.(check int) "instrs add" 10 c.Cost.instrs

let test_cost_charge_advances_time () =
  let elapsed = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let scratch = Ops.alloc1 ~node:0 () in
        let t0 = Ops.now () in
        Cost.charge ~scratch (Cost.make ~reads:2 ~writes:1 ~instrs:10 ());
        elapsed := Ops.now () - t0)
  in
  let expected =
    (2 * cfg.Config.local_read_ns) + cfg.Config.local_write_ns
    + Config.instrs cfg 10
  in
  Alcotest.(check int) "charged exactly" expected !elapsed

let test_attribute_get_set () =
  let v = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make_at ~name:"x" ~node:0 5 in
        Attribute.set a 9;
        v := Attribute.get a)
  in
  Alcotest.(check int) "set/get" 9 !v

let test_attribute_immutable_rejected () =
  let raised = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make_at ~name:"x" ~node:0 5 in
        Attribute.set_mutability a false;
        try Attribute.set a 9 with Attribute.Immutable_attribute "x" -> raised := true)
  in
  Alcotest.(check bool) "immutable set raises" true !raised

let test_attribute_mutability_toggle () =
  let v = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make_at ~name:"x" ~node:0 5 in
        Attribute.set_mutability a false;
        Attribute.set_mutability a true;
        Attribute.set a 6;
        v := Attribute.get a)
  in
  Alcotest.(check int) "mutable again" 6 !v

let test_attribute_ownership () =
  let stranger_rejected = ref false and owner_ok = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make_at ~name:"x" ~node:0 1 in
        let holding = ref false in
        let owner =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              Alcotest.(check bool) "acquired" true (Attribute.acquire a);
              Attribute.set a 2;
              owner_ok := true;
              holding := true;
              (* Hold ownership long enough for the stranger to try. *)
              Ops.work 600_000;
              Attribute.release a)
        in
        while not !holding do
          Ops.delay 10_000
        done;
        (try Attribute.set a 3
         with Attribute.Not_owner msg ->
           (* The message names the attribute and the holding thread. *)
           stranger_rejected :=
             contains ~sub:"x (held by thread" msg && contains ~sub:"caller thread" msg);
        Cthreads.Cthread.join owner;
        (* Released: anyone may set again. *)
        Attribute.set a 4)
  in
  Alcotest.(check bool) "owner set fine" true !owner_ok;
  Alcotest.(check bool) "stranger rejected" true !stranger_rejected

let test_attribute_acquire_is_reentrant () =
  let both = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make_at ~name:"x" ~node:0 1 in
        let first = Attribute.acquire a in
        let second = Attribute.acquire a in
        both := first && second;
        Attribute.release a)
  in
  Alcotest.(check bool) "same thread may re-acquire" true !both

let test_attribute_release_by_stranger_rejected () =
  let raised = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make_at ~name:"x" ~node:0 1 in
        ignore (Attribute.acquire a);
        let stranger =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              try Attribute.release a with Attribute.Not_owner _ -> raised := true)
        in
        Cthreads.Cthread.join stranger;
        Attribute.release a)
  in
  Alcotest.(check bool) "stranger release rejected" true !raised

let test_sensor_period () =
  let samples = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let counter = ref 0 in
        let s =
          Sensor.make ~period:3 ~overhead_instrs:0 (fun () ->
              incr counter;
              !counter)
        in
        for _ = 1 to 10 do
          match Sensor.tick s with Some v -> samples := v :: !samples | None -> ()
        done;
        Alcotest.(check int) "samples taken" 3 (Sensor.samples_taken s))
  in
  Alcotest.(check (list int)) "sampled on ticks 3,6,9" [ 3; 2; 1 ] !samples

let test_sensor_force () =
  let v = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let s = Sensor.make ~period:100 ~overhead_instrs:0 (fun () -> 42) in
        v := Sensor.force s)
  in
  Alcotest.(check int) "force bypasses period" 42 !v

let test_sensor_sampling_costs_time () =
  let dt = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let s = Sensor.make ~period:1 ~overhead_instrs:100 (fun () -> 0) in
        let t0 = Ops.now () in
        ignore (Sensor.tick s);
        dt := Ops.now () - t0)
  in
  Alcotest.(check int) "overhead charged" (Config.instrs cfg 100) !dt

(* A toy two-configuration spec: configuration 0 ([lo]) moves to 1
   ([hi]) on metrics in [up], and back on metrics in [down] when given.
   Each transition is labelled with its target's name, fires on the
   first enabled sample and costs 1R 1W. *)
let toy_spec ~lo ~hi ~up ?down () =
  let module Spec = Policy.Spec in
  let move from target cond label =
    {
      Spec.t_from = from;
      t_cond = cond;
      t_target = target;
      t_label = label;
      t_repeats = 1;
      t_cost = Cost.reads_writes 1 1;
    }
  in
  {
    Spec.s_name = "toy";
    s_kind = "object";
    s_attribute = "toy.config";
    s_metric = "obs";
    s_monotone = Spec.Unordered;
    s_configs = [ { Spec.c_name = lo; c_value = 0 }; { Spec.c_name = hi; c_value = 1 } ];
    s_initial = 0;
    s_transitions =
      move 0 1 up hi :: (match down with Some c -> [ move 1 0 c lo ] | None -> []);
    s_guard = None;
  }

let test_feedback_loop_adapts () =
  let observed_modes = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let level = ref 0 in
        let sensor = Sensor.make ~period:2 ~overhead_instrs:0 (fun () -> !level) in
        let mode = ref 0 in
        let spec =
          toy_spec ~lo:"idle" ~hi:"busy" ~up:(Policy.Spec.cond 6)
            ~down:(Policy.Spec.cond 0 ~hi:5) ()
        in
        let loop =
          Adaptive.create ~spec ~home:0 ~sensor
            ~read:(fun () -> !mode)
            ~apply:(fun v ->
              mode := v;
              observed_modes := Policy.Spec.config_name spec v :: !observed_modes;
              true)
        in
        (* ticks 1-4 at level 0 -> stays idle; raise level, ticks sample
           on even counts. *)
        for i = 1 to 8 do
          level := if i >= 4 then 9 else 0;
          ignore (Adaptive.tick loop)
        done;
        level := 0;
        for _ = 9 to 12 do
          ignore (Adaptive.tick loop)
        done;
        let stats = registry_stats () in
        Alcotest.(check int) "policy ran once per sample" 6 stats.Registry.policy_runs;
        Alcotest.(check int) "two transitions" 2 (Adaptive.adaptations loop);
        Alcotest.(check bool) "last label" true (stats.Registry.last_label = Some "idle");
        Alcotest.(check int) "log length" 2 (List.length (Adaptive.log loop)))
  in
  Alcotest.(check (list string)) "busy then idle" [ "idle"; "busy" ] !observed_modes

let test_feedback_feed_bypasses_sensor () =
  let adapted = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let sensor = Sensor.make ~period:1000 ~overhead_instrs:0 (fun () -> 0) in
        let loop =
          Adaptive.create
            ~spec:(toy_spec ~lo:"idle" ~hi:"x" ~up:(Policy.Spec.cond 99 ~hi:99) ())
            ~home:0 ~sensor
            ~read:(fun () -> if !adapted then 1 else 0)
            ~apply:(fun _ ->
              adapted := true;
              true)
        in
        ignore (Adaptive.feed loop 99);
        Alcotest.(check int) "no sensor samples" 0 (Adaptive.samples loop))
  in
  Alcotest.(check bool) "fed observation adapted" true !adapted

let test_feedback_charges_cost () =
  let dt = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let sensor = Sensor.make ~period:1 ~overhead_instrs:0 (fun () -> 0) in
        let loop =
          Adaptive.create
            ~spec:(toy_spec ~lo:"idle" ~hi:"x" ~up:(Policy.Spec.cond 0) ())
            ~home:0 ~sensor
            ~read:(fun () -> 0)
            ~apply:(fun _ -> true)
        in
        let t0 = Ops.now () in
        ignore (Adaptive.tick loop);
        dt := Ops.now () - t0;
        Alcotest.(check bool) "cost accumulated" true
          ((registry_stats ()).Registry.total_cost = Cost.reads_writes 1 1))
  in
  Alcotest.(check int) "1R 1W charged"
    (cfg.Config.local_read_ns + cfg.Config.local_write_ns)
    !dt

(* A decision whose apply reports failure (e.g. an external agent
   losing the attribute-ownership race) must not count as an
   adaptation: no metrics, no log entry, no [A_adaptation] annotation. *)
let test_feedback_failed_apply_not_counted () =
  let events = ref 0 in
  let sim = Sched.create cfg in
  Sched.add_annot_hook sim (fun a ->
      match a.Sched.annotation with Ops.A_adaptation _ -> incr events | _ -> ());
  Sched.run sim (fun () ->
      let sensor =
        Sensor.make ~period:1 ~overhead_instrs:0 (fun () -> 0)
      in
      let ok = ref false in
      let loop =
        Adaptive.create
          ~spec:(toy_spec ~lo:"idle" ~hi:"maybe" ~up:(Policy.Spec.cond 0) ())
          ~home:0 ~sensor
          ~read:(fun () -> 0)
          ~apply:(fun _ -> !ok)
      in
      Alcotest.(check bool) "failed apply reports false" false (Adaptive.tick loop);
      let stats = registry_stats () in
      Alcotest.(check int) "policy ran" 1 stats.Registry.policy_runs;
      Alcotest.(check int) "not counted" 0 (Adaptive.adaptations loop);
      Alcotest.(check bool) "no label" true (stats.Registry.last_label = None);
      Alcotest.(check bool) "no cost accumulated" true
        (stats.Registry.total_cost = Cost.zero);
      ok := true;
      Alcotest.(check bool) "successful apply reports true" true
        (Adaptive.tick loop);
      Alcotest.(check int) "counted once" 1 (Adaptive.adaptations loop));
  Alcotest.(check int) "annotated only the applied one" 1 !events

let suite =
  [
    Alcotest.test_case "cost algebra" `Quick test_cost_algebra;
    Alcotest.test_case "cost charge" `Quick test_cost_charge_advances_time;
    Alcotest.test_case "attribute get/set" `Quick test_attribute_get_set;
    Alcotest.test_case "attribute immutability" `Quick test_attribute_immutable_rejected;
    Alcotest.test_case "mutability toggle" `Quick test_attribute_mutability_toggle;
    Alcotest.test_case "attribute ownership" `Quick test_attribute_ownership;
    Alcotest.test_case "ownership reentrant" `Quick test_attribute_acquire_is_reentrant;
    Alcotest.test_case "stranger release" `Quick test_attribute_release_by_stranger_rejected;
    Alcotest.test_case "sensor period" `Quick test_sensor_period;
    Alcotest.test_case "sensor force" `Quick test_sensor_force;
    Alcotest.test_case "sensor cost" `Quick test_sensor_sampling_costs_time;
    Alcotest.test_case "feedback adapts" `Quick test_feedback_loop_adapts;
    Alcotest.test_case "feedback feed" `Quick test_feedback_feed_bypasses_sensor;
    Alcotest.test_case "feedback charges cost" `Quick test_feedback_charges_cost;
    Alcotest.test_case "feedback failed apply" `Quick
      test_feedback_failed_apply_not_counted;
  ]
