(* Tests of the formal configuration-space model (paper section 3.1),
   including validating an actual adaptive lock's simple-adapt
   trajectory against the waiting-policy space. *)

module F = Adaptive_core.Formal
module Cost = Adaptive_core.Cost

let check_bool = Alcotest.(check bool)

let spin = F.config "pure spin"
let blocking = F.config "pure blocking"
let combined = F.config "combined"

let waiting_space =
  (* The section 5.1 waiting-policy space: simple-adapt may jump from
     anything to pure spin (zero waiters), descend combined -> blocking,
     and grow blocking -> combined -> spin. *)
  F.space
    ~configs:[ spin; blocking; combined ]
    ~edges:
      [
        ("pure spin", "combined");
        ("pure spin", "pure blocking");
        ("combined", "combined");
        ("combined", "pure spin");
        ("combined", "pure blocking");
        ("pure blocking", "combined");
        ("pure blocking", "pure spin");
      ]

let tr at from_ to_ = { F.at; from_; to_; cost = Cost.reads_writes 1 1 }

let test_membership () =
  check_bool "spin in space" true (F.mem waiting_space spin);
  check_bool "unknown not in space" false (F.mem waiting_space (F.config "handoff"))

let test_duplicate_rejected () =
  check_bool "duplicate member rejected" true
    (try
       ignore (F.space ~configs:[ spin; spin ] ~edges:[]);
       false
     with Invalid_argument _ -> true)

let test_validate_good_chain () =
  let log = [ tr 10 combined spin; tr 20 spin blocking; tr 30 blocking combined ] in
  check_bool "valid chain accepted" true (F.validate waiting_space ~initial:combined log = Ok ())

let test_validate_broken_chain () =
  let log = [ tr 10 combined spin; tr 20 combined blocking ] in
  (match F.validate waiting_space ~initial:combined log with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "discontinuous chain accepted")

let test_validate_time_order () =
  let log = [ tr 20 combined spin; tr 10 spin combined ] in
  (match F.validate waiting_space ~initial:combined log with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "time-disordered chain accepted")

let test_validate_forbidden_edge () =
  let s = F.space ~configs:[ spin; blocking ] ~edges:[ ("pure spin", "pure blocking") ] in
  (match F.validate s ~initial:blocking [ tr 5 blocking spin ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forbidden edge accepted")

let test_total_cost_adds () =
  let log = [ tr 1 combined spin; tr 2 spin combined ] in
  let c = F.total_cost log in
  Alcotest.(check int) "reads" 2 c.Cost.reads;
  Alcotest.(check int) "writes" 2 c.Cost.writes

(* Classify an adaptive lock's log labels into the formal space. *)
let classify label =
  if label = "pure spin" then spin
  else if label = "pure blocking" then blocking
  else combined

let test_adaptive_lock_log_stays_in_space () =
  let cfg = { Butterfly.Config.default with Butterfly.Config.processors = 8 } in
  let sim = Butterfly.Sched.create cfg in
  let log = ref [] in
  Butterfly.Sched.run sim (fun () ->
      let lk = Locks.Adaptive_lock.create ~home:0 () in
      (* Quiet phase, storm, quiet: forces several reconfigurations. *)
      for _ = 1 to 12 do
        Locks.Adaptive_lock.lock lk;
        Cthreads.Cthread.work 2_000;
        Locks.Adaptive_lock.unlock lk
      done;
      let ts =
        List.init 6 (fun i ->
            Cthreads.Cthread.fork ~proc:(i + 1) (fun () ->
                for _ = 1 to 10 do
                  Locks.Adaptive_lock.lock lk;
                  Cthreads.Cthread.work 300_000;
                  Locks.Adaptive_lock.unlock lk
                done))
      in
      Cthreads.Cthread.join_all ts;
      log := Adaptive_core.Adaptive.log (Locks.Adaptive_lock.feedback lk));
  (* Rebuild the transition chain from the label log. *)
  let initial = combined in
  let transitions, _ =
    List.fold_left
      (fun (acc, current) (at, label) ->
        let next = classify label in
        ({ F.at; from_ = current; to_ = next; cost = Cost.reads_writes 1 1 } :: acc, next))
      ([], initial) !log
  in
  let transitions = List.rev transitions in
  check_bool "trajectory non-trivial" true (List.length transitions >= 2);
  match F.validate waiting_space ~initial transitions with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "simple-adapt left the declared space: %s" msg

(* -- replaying a recorded log against its spec: the Error paths -- *)

let test_check_log_errors () =
  let spec = Locks.Lock_core.impl_ladder_spec () in
  let verdict log =
    match F.check_log spec log with Ok () -> "ok" | Error e -> e
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
    Alcotest.test_case "membership" `Quick test_membership;
    Alcotest.test_case "duplicates rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "valid chain" `Quick test_validate_good_chain;
    Alcotest.test_case "broken chain" `Quick test_validate_broken_chain;
    Alcotest.test_case "time order" `Quick test_validate_time_order;
    Alcotest.test_case "forbidden edge" `Quick test_validate_forbidden_edge;
    Alcotest.test_case "cost algebra" `Quick test_total_cost_adds;
    Alcotest.test_case "check_log errors" `Quick test_check_log_errors;
    Alcotest.test_case "simple-adapt trajectory in space" `Quick
      test_adaptive_lock_log_stays_in_space;
  ]
