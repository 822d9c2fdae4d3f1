(* The formal check of the paper's section 3.1: a recorded adaptation
   log replays as a Ψ chain through the spec the object declared. An
   actual adaptive lock's simple-adapt trajectory is checked against
   its own spec, and the replay's error paths are pinned. *)

module Spec = Adaptive_core.Policy.Spec

let test_adaptive_lock_log_stays_in_space () =
  let cfg = { Butterfly.Config.default with Butterfly.Config.processors = 8 } in
  let sim = Butterfly.Sched.create cfg in
  let log = ref [] in
  Butterfly.Sched.run sim (fun () ->
      let lk =
        Locks.Lock.create ~name:"adaptive-lock" ~home:0 Locks.Lock.adaptive_default
      in
      (* Quiet phase, storm, quiet: forces several reconfigurations. *)
      for _ = 1 to 12 do
        Locks.Lock_core.lock lk;
        Cthreads.Cthread.work 2_000;
        Locks.Lock_core.unlock lk
      done;
      let ts =
        List.init 6 (fun i ->
            Cthreads.Cthread.fork ~proc:(i + 1) (fun () ->
                for _ = 1 to 10 do
                  Locks.Lock_core.lock lk;
                  Cthreads.Cthread.work 300_000;
                  Locks.Lock_core.unlock lk
                done))
      in
      Cthreads.Cthread.join_all ts;
      log := Adaptive_core.Adaptive.log (Option.get (Locks.Lock_core.feedback lk)));
  Alcotest.(check bool) "trajectory non-trivial" true (List.length !log >= 2);
  match Spec.check_log (Locks.Spin_budget.policy_spec ()) !log with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "simple-adapt left its declared spec: %s" msg

(* -- replaying a recorded log against its spec: the Error paths -- *)

let test_check_log_errors () =
  let spec = Locks.Lock_core.impl_ladder_spec () in
  let verdict log =
    match Spec.check_log spec log with Ok () -> "ok" | Error e -> e
  in
  Alcotest.(check string) "undeclared label"
    "log entry \"swap:tas->tas\" at t=5: no declared transition from tas"
    (verdict [ (5, "swap:tas->tas") ]);
  Alcotest.(check string) "label valid only from another configuration"
    "log entry \"swap:mcs->tas\" at t=9: no declared transition from blocking"
    (verdict [ (5, "swap:tas->blocking"); (9, "swap:mcs->tas") ]);
  Alcotest.(check string) "out of time order" "transition at 3 out of time order"
    (verdict [ (5, "swap:tas->mcs"); (3, "swap:mcs->tas") ]);
  Alcotest.(check string) "equal times are in order" "ok"
    (verdict [ (5, "swap:tas->mcs"); (5, "swap:mcs->tas") ]);
  (* the guard's fallback resolves from every configuration *)
  List.iter
    (fun (name, prefix) ->
      Alcotest.(check string) ("fallback from " ^ name) "ok"
        (verdict (prefix @ [ (7, "impl-guardrail-fallback"); (8, "swap:tas->mcs") ])))
    [
      ("tas", []);
      ("mcs", [ (1, "swap:tas->mcs") ]);
      ("blocking", [ (1, "swap:tas->blocking") ]);
    ]

let suite =
  [
    Alcotest.test_case "check_log errors" `Quick test_check_log_errors;
    Alcotest.test_case "simple-adapt trajectory in space" `Quick
      test_adaptive_lock_log_stays_in_space;
  ]
