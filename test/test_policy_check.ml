(* Tests of the declarative policy IR (Spec validate/compile) and the
   static policy checker: shipped specs verify clean and reproduce the
   committed POLICY artifact, seeded-bad fixtures are flagged, the
   compiled interpreter honours hysteresis streaks across config
   changes and failed applies, and the guard's cooldown edges stay
   pinned. *)

open Butterfly
module Policy = Adaptive_core.Policy
module Spec = Policy.Spec
module PC = Analysis.Policy_check

let cfg = { Config.default with Config.processors = 4; contention = false }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let cost = Adaptive_core.Cost.reads_writes 1 1

(* The checker's single-spec findings and a pair's cross-object
   conflicts, read off [Policy_check.run]. *)
let check_spec spec =
  match PC.run ~domains:1 [ spec ] with
  | [ r ], _ -> r.PC.sr_findings
  | _ -> Alcotest.fail "one report per spec"

let conflicts a b = snd (PC.run ~domains:1 [ a; b ])

let trans ?(repeats = 1) t_from c t_target t_label =
  { Spec.t_from; t_cond = c; t_target; t_label; t_repeats = repeats; t_cost = cost }

(* -- the checker over the shipped catalogue and the fixtures -- *)

let test_shipped_clean () =
  let ((reports, cross) as res) = PC.run ~domains:1 (PC.shipped ()) in
  Alcotest.(check int) "six shipped specs" 6 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (r.PC.sr_name ^ " clean")
        []
        (List.map (fun f -> f.PC.f_kind ^ ": " ^ f.PC.f_message) r.PC.sr_findings))
    reports;
  Alcotest.(check int) "no cross-object conflicts" 0 (List.length cross);
  Alcotest.(check bool) "clean" true (PC.clean res)

let test_shipped_specs_validate () =
  List.iter
    (fun spec ->
      Alcotest.(check (list string))
        (spec.Spec.s_name ^ " well-formed")
        [] (Spec.validate spec))
    (PC.shipped ())

(* -- the checker reproduces the committed POLICY artifact byte for byte -- *)

(* The committed artifact is compiled in by test/dune
   ([Committed.policy]), so the test runs from any working
   directory. *)
let test_policy_json_committed () =
  let fixtures =
    List.map
      (fun (name, specs, expect) -> PC.check_fixture ~name ~expect specs)
      (Analysis_suite.policy_fixtures ())
  in
  let json = PC.to_json ~shipped:(PC.run ~domains:1 (PC.shipped ())) ~fixtures ^ "\n" in
  Alcotest.(check string) "results/POLICY_results.json" Committed.policy json

let test_fixtures_flagged () =
  List.iter
    (fun (name, specs, expect) ->
      let x = PC.check_fixture ~name ~expect specs in
      Alcotest.(check (list string)) (name ^ " missing") [] x.PC.x_missing;
      Alcotest.(check bool) (name ^ " has findings") true (x.PC.x_findings <> []))
    (Analysis_suite.policy_fixtures ())

let test_malformed_spec_reported () =
  let bad =
    {
      Spec.s_name = "bad";
      s_kind = "fixture";
      s_attribute = "bad.attr";
      s_metric = "m";
      s_monotone = Spec.Unordered;
      s_configs = [ { Spec.c_name = "a"; c_value = 0 }; { Spec.c_name = "b"; c_value = 0 } ];
      s_initial = 7;
      s_transitions =
        [ trans ~repeats:0 0 (Spec.cond 5 ~hi:2) 0 "self"; trans 0 (Spec.cond 0) 9 "out" ];
      s_guard = None;
    }
  in
  let errs = Spec.validate bad in
  Alcotest.(check bool) "validate flags it" true (List.length errs >= 4);
  let findings = check_spec bad in
  Alcotest.(check bool) "all malformed-spec" true
    (findings <> [] && List.for_all (fun f -> f.PC.f_kind = "malformed-spec") findings);
  Alcotest.(check int) "one finding per error" (List.length errs) (List.length findings)

let test_conflict_needs_shared_attribute () =
  let pair =
    List.find_map
      (fun (n, specs, _) -> if n = "conflicting-pair" then Some specs else None)
      (Analysis_suite.policy_fixtures ())
  in
  match pair with
  | Some [ a; b ] ->
    Alcotest.(check bool) "shared attribute conflicts" true (conflicts a b <> []);
    let b' = { b with Spec.s_attribute = "somewhere.else" } in
    Alcotest.(check int) "distinct attributes never conflict" 0
      (List.length (conflicts a b'))
  | _ -> Alcotest.fail "conflicting-pair fixture missing"

(* -- interpreter semantics of the compiled spec -- *)

let labels = ref []

let stepper p =
  fun m ->
  match p m with
  | Policy.No_change -> "none"
  | Policy.Reconfigure { label; apply; _ } ->
    let ok = apply () in
    labels := label :: !labels;
    if ok then label else label ^ "!"

let test_compiled_rw_hysteresis () =
  (* writer-pref on the first waiting writer; reader-pref only after 3
     consecutive writer-free samples, with the streak broken by any
     non-matching sample. *)
  let cfgv = ref 0 in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun v ->
        cfgv := v;
        true)
      ~metric:(fun (m : int) -> m)
  in
  let step = stepper p in
  Alcotest.(check string) "calm at start" "none" (step 0);
  Alcotest.(check string) "first writer flips" "writer-pref" (step 3);
  Alcotest.(check string) "calm 1" "none" (step 0);
  Alcotest.(check string) "calm 2" "none" (step 0);
  Alcotest.(check string) "straggler breaks the streak" "none" (step 2);
  Alcotest.(check string) "calm 1 again" "none" (step 0);
  Alcotest.(check string) "calm 2 again" "none" (step 0);
  Alcotest.(check string) "calm 3 fires" "reader-pref" (step 0);
  Alcotest.(check int) "back to reader pref" 0 !cfgv

let test_compiled_counter_resets_on_config_change () =
  let cfgv = ref 0 in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun v ->
        cfgv := v;
        true)
      ~metric:(fun (m : int) -> m)
  in
  let step = stepper p in
  Alcotest.(check string) "flip to writer" "writer-pref" (step 3);
  Alcotest.(check string) "calm 1" "none" (step 0);
  Alcotest.(check string) "calm 2" "none" (step 0);
  (* an external agent bounces the attribute: the streak must restart *)
  cfgv := 0;
  Alcotest.(check string) "external flip observed" "none" (step 0);
  cfgv := 1;
  Alcotest.(check string) "fresh streak 1" "none" (step 0);
  Alcotest.(check string) "fresh streak 2" "none" (step 0);
  Alcotest.(check string) "fresh streak 3 fires" "reader-pref" (step 0)

let test_compiled_failed_apply_retries () =
  (* an apply that reports failure (external agent losing the
     ownership race) must not consume the hysteresis streak: the very
     next enabled sample retries instead of re-accumulating. *)
  let cfgv = ref 1 in
  let ok = ref false in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun v ->
        if !ok then begin
          cfgv := v;
          true
        end
        else false)
      ~metric:(fun (m : int) -> m)
  in
  let step = stepper p in
  Alcotest.(check string) "calm 1" "none" (step 0);
  Alcotest.(check string) "calm 2" "none" (step 0);
  Alcotest.(check string) "fires but apply loses" "reader-pref!" (step 0);
  Alcotest.(check string) "immediate retry, no re-accumulation" "reader-pref!" (step 0);
  ok := true;
  Alcotest.(check string) "retry lands" "reader-pref" (step 0);
  Alcotest.(check int) "applied" 0 !cfgv;
  (* the successful apply reset the counter: three fresh samples needed *)
  cfgv := 1;
  Alcotest.(check string) "config change resets" "none" (step 0);
  Alcotest.(check string) "streak 2" "none" (step 0);
  Alcotest.(check string) "streak 3 fires" "reader-pref" (step 0)

let test_compiled_inert_off_spec () =
  (* soundness caveat pinned: an externally forced configuration value
     outside the spec leaves the compiled policy inert. *)
  let cfgv = ref 99 in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun _ -> Alcotest.fail "must not reconfigure from an off-spec config")
      ~metric:(fun (m : int) -> m)
  in
  List.iter
    (fun m ->
      match p m with
      | Policy.No_change -> ()
      | Policy.Reconfigure _ -> Alcotest.fail "decided from an off-spec config")
    [ 0; 1; 5; 0 ]

(* -- constructor validation: parameterizations the checker proves
   thrashing are rejected up front (the satellite threshold-fault
   fixes) -- *)

let test_constructor_threshold_validation () =
  Alcotest.check_raises "barrier overlap"
    (Invalid_argument
       "Adaptive_barrier.create: spin_if_under must be below block_if_over \
        (overlapping thresholds thrash)")
    (fun () ->
      ignore (Cthreads.Adaptive_barrier.create ~spin_if_under:9 ~block_if_over:9 2));
  (* and the checker agrees that parameterization thrashes *)
  Alcotest.(check bool) "barrier spec thrashes" true
    (List.exists
       (fun f -> f.PC.f_kind = "thrash-cycle")
       (check_spec
          (Cthreads.Adaptive_barrier.policy_spec ~spin_if_under:9 ~block_if_over:9 ())))

(* -- Policy.Guard cooldown edges -- *)

let test_guard_cooldown_resumes () =
  let g = Policy.Guard.create ~pathological_limit:2 ~cooldown:3 in
  let note p = Policy.Guard.note g ~pathological:p in
  Alcotest.(check bool) "streak 1" false (note true);
  Alcotest.(check bool) "streak 2 fires" true (note true);
  Alcotest.(check int) "one fallback" 1 (Policy.Guard.fallbacks g);
  (* cooldown: three pathological samples ignored *)
  Alcotest.(check bool) "cooldown 1" false (note true);
  Alcotest.(check bool) "cooldown 2" false (note true);
  Alcotest.(check bool) "cooldown 3" false (note true);
  (* counting resumes *)
  Alcotest.(check bool) "fresh streak 1" false (note true);
  Alcotest.(check bool) "fresh streak 2 fires" true (note true);
  Alcotest.(check int) "two fallbacks" 2 (Policy.Guard.fallbacks g);
  (* a healthy sample during a streak resets it *)
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "streak 1" false (note true);
  Alcotest.(check bool) "healthy resets" false (note false);
  Alcotest.(check bool) "streak 1 again" false (note true);
  Alcotest.(check bool) "streak 2 fires again" true (note true)

let suite =
  [
    Alcotest.test_case "shipped specs verify clean" `Quick test_shipped_clean;
    Alcotest.test_case "shipped specs validate" `Quick test_shipped_specs_validate;
    Alcotest.test_case "POLICY JSON matches the committed artifact" `Quick
      test_policy_json_committed;
    Alcotest.test_case "fixtures flagged" `Quick test_fixtures_flagged;
    Alcotest.test_case "malformed spec reported" `Quick test_malformed_spec_reported;
    Alcotest.test_case "conflicts need shared attribute" `Quick
      test_conflict_needs_shared_attribute;
    Alcotest.test_case "compiled rw hysteresis" `Quick test_compiled_rw_hysteresis;
    Alcotest.test_case "counter resets on config change" `Quick
      test_compiled_counter_resets_on_config_change;
    Alcotest.test_case "failed apply retries" `Quick test_compiled_failed_apply_retries;
    Alcotest.test_case "inert off-spec" `Quick test_compiled_inert_off_spec;
    Alcotest.test_case "constructor threshold validation" `Quick
      test_constructor_threshold_validation;
    Alcotest.test_case "guard cooldown resumes" `Quick test_guard_cooldown_resumes;
  ]
