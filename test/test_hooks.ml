(* Instrumentation buses and their zero-subscriber fast paths: every
   hook stream supports multiple observers, clearing, and — crucially
   for the simulator's hot paths — costs (almost) nothing when nobody
   listens. *)

open Butterfly

let base_cfg = { Config.default with Config.processors = 4 }

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_hook_counts_and_clear () =
  let sim = Sched.create base_cfg in
  check_int "no event hooks" 0 (Sched.event_hook_count sim);
  check_int "no access hooks" 0 (Sched.access_hook_count sim);
  check_int "no annot hooks" 0 (Sched.annot_hook_count sim);
  check_int "no trace hooks" 0 (Sched.trace_hook_count sim);
  Sched.add_event_hook sim (fun _ -> ());
  Sched.add_event_hook sim (fun _ -> ());
  check_int "event bus accepts several subscribers" 2 (Sched.event_hook_count sim);
  Sched.clear_event_hooks sim;
  check_int "cleared" 0 (Sched.event_hook_count sim);
  Sched.add_annot_hook sim (fun _ -> ());
  Sched.clear_annot_hooks sim;
  check_int "annot cleared" 0 (Sched.annot_hook_count sim);
  Sched.add_access_hook sim (fun _ -> ());
  Sched.clear_access_hooks sim;
  check_int "access cleared" 0 (Sched.access_hook_count sim);
  Sched.add_trace_hook sim (fun ~time:_ ~tid:_ _ -> ());
  Sched.add_trace_hook sim (fun ~time:_ ~tid:_ _ -> ());
  check_int "trace bus" 2 (Sched.trace_hook_count sim);
  Sched.clear_trace_hooks sim;
  check_int "trace cleared" 0 (Sched.trace_hook_count sim)

let test_event_bus_multiple_observers () =
  let sim = Sched.create base_cfg in
  let a = ref 0 and b = ref 0 in
  Sched.add_event_hook sim (fun _ -> incr a);
  Sched.add_event_hook sim (fun _ -> incr b);
  Sched.run sim (fun () ->
      let t = Cthreads.Cthread.fork ~proc:1 (fun () -> Ops.work 10_000) in
      Cthreads.Cthread.join t);
  check_bool "events fired" true (!a > 0);
  check_int "both observers saw every event" !a !b

let test_trace_bus_multiple_sinks () =
  let sim = Sched.create base_cfg in
  let a = ref [] and b = ref 0 in
  Sched.add_trace_hook sim (fun ~time:_ ~tid:_ msg -> a := msg :: !a);
  Sched.add_trace_hook sim (fun ~time:_ ~tid:_ _ -> incr b);
  Sched.run sim (fun () ->
      Ops.trace "one";
      Ops.trace "two");
  Alcotest.(check (list string)) "messages in order" [ "one"; "two" ] (List.rev !a);
  check_int "second sink saw both" 2 !b

let test_annotations_enabled_follows_subscribers () =
  (* Without annot hooks the run must leave the fast-path flag off;
     with one, annotations must be delivered. *)
  let observed_off = ref true in
  let sim = Sched.create base_cfg in
  Sched.run sim (fun () -> observed_off := not (Ops.annotations_enabled ()));
  check_bool "flag off with zero subscribers" true !observed_off;
  let seen = ref 0 and observed_on = ref false in
  let sim = Sched.create base_cfg in
  Sched.add_annot_hook sim (fun _ -> incr seen);
  Sched.run sim (fun () ->
      observed_on := Ops.annotations_enabled ();
      let w = Ops.alloc1 () in
      Ops.mark_relaxed_word w);
  check_bool "flag on with a subscriber" true !observed_on;
  check_int "annotation delivered" 1 !seen

let test_zero_subscriber_annotate_allocates_nothing () =
  (* The .mli promises ~zero cost with no annotation subscriber: the
     effect (whose continuation capture would allocate ~100 bytes per
     call) must not even be performed. 1000 calls staying under 512
     bytes of new allocation proves the guard short-circuits. *)
  let delta = ref infinity in
  let sim = Sched.create base_cfg in
  Sched.run sim (fun () ->
      let w = Ops.alloc1 () in
      let annotation = Ops.A_sync_word w in
      let before = Gc.allocated_bytes () in
      for _ = 1 to 1_000 do
        Ops.annotate annotation
      done;
      let after = Gc.allocated_bytes () in
      delta := after -. before);
  check_bool
    (Printf.sprintf "allocated %.0f bytes for 1000 unobserved annotations" !delta)
    true (!delta < 512.0)

let test_default_thread_names_are_per_machine () =
  (* Machine-assigned default names restart per machine (tid-derived),
     so they cannot drift with global process history. *)
  let names_of () =
    let names = ref [] in
    let sim = Sched.create base_cfg in
    Sched.run sim (fun () ->
        let ts =
          List.init 3 (fun _ ->
              Cthreads.Cthread.fork (fun () ->
                  Cthreads.Cthread.work 1_000))
        in
        List.iter
          (fun t -> names := Ops.thread_name (Cthreads.Cthread.id t) :: !names)
          ts;
        Cthreads.Cthread.join_all ts);
    List.rev !names
  in
  let first = names_of () in
  let second = names_of () in
  Alcotest.(check (list string))
    "fresh machine, same default names"
    [ "thread-1"; "thread-2"; "thread-3" ]
    first;
  Alcotest.(check (list string)) "second machine identical" first second

let suite =
  [
    Alcotest.test_case "hook counts and clear" `Quick test_hook_counts_and_clear;
    Alcotest.test_case "event bus fan-out" `Quick test_event_bus_multiple_observers;
    Alcotest.test_case "trace bus fan-out" `Quick test_trace_bus_multiple_sinks;
    Alcotest.test_case "annotations flag tracks subscribers" `Quick
      test_annotations_enabled_follows_subscribers;
    Alcotest.test_case "zero-subscriber annotate allocates nothing" `Quick
      test_zero_subscriber_annotate_allocates_nothing;
    Alcotest.test_case "per-machine default thread names" `Quick
      test_default_thread_names_are_per_machine;
  ]
