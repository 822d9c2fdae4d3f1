(* Proto_check: the explicit-state protocol model checker. Shipped
   protocol models verify clean with pinned state and edge counts;
   [max_states] truncates; one shared pass reports what one pass per
   property does; the per-pc rule index fires exactly what a plain
   declaration-order scan fires; the explored graph stays within its
   major-heap footprint and its 31-bit ids never wrap; the seen-set's
   codec round-trips; each seeded-bad
   variant produces a counterexample for exactly its expected
   properties, and the gate fails a fixture that violates more;
   counterexamples replay on their own model;
   checker output is byte-identical at any domain count; random walks
   of the model replay (model well-formedness); and an instrumented
   real implementation swap's transition log replays through the
   quiescence model step for step (conformance: the model moves like
   the implementation). *)

open Butterfly
open Cthreads
module P = Analysis.Proto_check
module PM = Locks.Proto_models
module L = Locks.Lock_core

(* One model's reports, and one property's, through the checker's
   entry point. *)
let check_model ?max_states model props =
  P.check_all ~domains:1 ?max_states [ (model, props) ]

let check_one ?max_states model prop = List.hd (check_model ?max_states model [ prop ])

let small_quiescence () = PM.quiescence ~waiters:[ PM.Wsleep; PM.Wtimed ] ()
let small_models () = [ small_quiescence (); PM.mcs ~contenders:2 (); PM.guard () ]

(* -- shipped protocols verify clean at their checked sizes -- *)

let test_shipped_clean () =
  let reports = P.check_all (PM.shipped ()) in
  Alcotest.(check bool) "every property holds" true (P.clean reports);
  (* Every property of a model explores the same state space: a seen-set
     that merged two distinct states, or split one, moves these. *)
  List.iter
    (fun (model, props, states, edges) ->
      let mine = List.filter (fun r -> r.P.r_model = model) reports in
      Alcotest.(check int) (model ^ ": properties") props (List.length mine);
      List.iter
        (fun r ->
          let what = model ^ "/" ^ r.P.r_property in
          Alcotest.(check int) (what ^ ": states") states r.P.r_states;
          Alcotest.(check int) (what ^ ": edges") edges r.P.r_edges)
        mine)
    [ ("quiescence-swap", 5, 200_987, 665_063);
      ("mcs-handoff", 3, 218, 324);
      ("guard-cooldown", 4, 5, 8) ]

(* -- max_states cuts the exploration off as Out_of_bounds -- *)

let test_out_of_bounds () =
  let model, props = List.hd (PM.shipped ()) in
  List.iter
    (fun prop ->
      let r = check_one ~max_states:1000 model prop in
      Alcotest.(check bool) (r.P.r_property ^ ": out of bounds") true
        (r.P.r_verdict = P.Out_of_bounds);
      Alcotest.(check int) (r.P.r_property ^ ": states") 1000 r.P.r_states;
      Alcotest.(check int) (r.P.r_property ^ ": edges") 2088 r.P.r_edges)
    props;
  (* The bound counts the initial state too, and a bound below one
     state is an error. *)
  List.iter
    (fun (model, props) ->
      List.iter
        (fun r ->
          let what = r.P.r_model ^ "/" ^ r.P.r_property in
          Alcotest.(check bool) (what ^ ": out of bounds at 1") true
            (r.P.r_verdict = P.Out_of_bounds);
          Alcotest.(check int) (what ^ ": one state") 1 r.P.r_states;
          Alcotest.(check int) (what ^ ": no edges") 0 r.P.r_edges)
        (check_model ~max_states:1 model props);
      List.iter
        (fun m ->
          Alcotest.check_raises
            (Printf.sprintf "%s: max_states %d" (Adaptive_core.Protocol.name model) m)
            (Invalid_argument "Proto_check.check_model: max_states < 1")
            (fun () -> ignore (check_one ~max_states:m model (List.hd props))))
        [ -1; 0 ])
    (PM.shipped ())

(* -- one shared pass reports what one pass per property reports -- *)

let report =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf (P.to_json ~shipped:[ r ] ~fixtures:[] ~lowered:[]))
    ( = )

(* The shared pass's reports, once checked against single passes. *)
let check_shared what ?max_states model props =
  let shared = check_model ?max_states model props in
  Alcotest.(check (list report)) what (List.map (check_one ?max_states model) props) shared;
  shared

let test_shared_pass () =
  List.iter
    (fun (model, props) -> ignore (check_shared (Adaptive_core.Protocol.name model) model props))
    (PM.shipped ());
  (* In a seeded-bad model the properties resolve at different
     instants while the others keep exploring. *)
  let staggered = ref 0 in
  List.iter
    (fun (name, (model, props), _) ->
      let states = List.map (fun r -> r.P.r_states) (check_shared name model props) in
      if List.length (List.sort_uniq compare states) > 1 then incr staggered)
    (PM.seeded_bad ());
  Alcotest.(check bool) "some fixture resolves at several instants" true (!staggered > 0);
  let model, props = List.hd (PM.shipped ()) in
  List.iter
    (fun m -> ignore (check_shared (Printf.sprintf "max_states %d" m) ~max_states:m model props))
    [ 1; 2; 1000 ]

(* -- the per-pc rule index: the indexed iterator fires exactly what a
   plain declaration-order scan fires -- *)

module Pr = Adaptive_core.Protocol

let successor_list model st =
  let out = ref [] in
  Pr.iter_successors model st (fun code st' -> out := (code, Array.copy st') :: !out);
  List.rev !out

(* Every edge code of [model] in order — every rule, then the crashes,
   then the tick — each fired from a model compiled with that
   transition alone, so no bucket merge is involved. *)
let plain_scan model =
  let s = Pr.spec model in
  let alone rules ~crash_budget ~clock_max =
    Pr.compile
      { s with Pr.Spec.p_rules = rules; p_crash_budget = crash_budget; p_clock_max = clock_max }
  in
  let nrules = List.length s.Pr.Spec.p_rules in
  let parts =
    List.mapi (fun i u -> (alone [ u ] ~crash_budget:0 ~clock_max:0, i)) s.Pr.Spec.p_rules
    @ [ (alone [] ~crash_budget:s.Pr.Spec.p_crash_budget ~clock_max:0, nrules);
        (alone [] ~crash_budget:0 ~clock_max:s.Pr.Spec.p_clock_max, nrules) ]
  in
  fun st ->
    List.concat_map
      (fun (m, base) -> List.map (fun (c, st') -> (base + c, st')) (successor_list m st))
      parts

(* A full BFS of [model], comparing both iterators on every state. *)
let same_successors_everywhere name model =
  let plain = plain_scan model in
  let seen = Hashtbl.create 4096 and queue = Queue.create () in
  let visit st =
    let key = P.Codec.pack st in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add st queue
    end
  in
  visit (Pr.init model);
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    let indexed = successor_list model st in
    if indexed <> plain st then
      Alcotest.failf "%s: the indexed iterator differs from a plain scan in %s" name
        (Pr.describe model st);
    List.iter (fun (_, st') -> visit st') indexed
  done;
  Hashtbl.length seen

let test_successor_order () =
  let models =
    List.map (fun (m, _) -> (Pr.name m, m)) (PM.shipped ())
    @ List.map (fun (name, (m, _), _) -> (name, m)) (PM.seeded_bad ())
  in
  (* Every shipped model declares its rules role by role, so one more
     declares the small swap's rules pc by pc: roles interleave in
     declaration order, and only a merge by rule index keeps it. *)
  let by_pc =
    let s = Pr.spec (fst (small_quiescence ())) in
    Pr.compile
      { s with
        Pr.Spec.p_rules =
          List.stable_sort
            (fun a b -> compare a.Pr.Spec.u_from b.Pr.Spec.u_from)
            s.Pr.Spec.p_rules }
  in
  let states =
    List.map (fun (name, m) -> same_successors_everywhere name m)
      (models @ [ ("small swap, rules by pc", by_pc) ])
  in
  Alcotest.(check int) "shipped swap: every state compared" 200_987 (List.hd states)

(* -- footprint: what one exploration allocates straight into the
   major heap, per state. Words are counted from [Gc.counters] as
   major - promoted: every growable buffer of the graph is large enough
   to skip the minor heap. Measured on quiescence-swap's 200,987
   states: 48.97 words per state with every id, offset, hash, parent
   and edge an 8-byte [int array] or pointer array entry, 28.81 with
   4-byte entries in byte buffers, tagged slots and edge codes; the
   bound is 32. -- *)

let test_footprint_bound () =
  let model, props = List.hd (PM.shipped ()) in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct () in
  let reports = check_model model props in
  let words = direct () -. before in
  let states = (List.hd reports).P.r_states in
  Alcotest.(check int) "the whole swap was explored" 200_987 states;
  let per_state = words /. float_of_int states in
  if per_state >= 32.0 then
    Alcotest.failf "check_model allocates %.2f major words per state" per_state

(* -- minor allocation per explored state: the successor iterator
   owns its scratch state and bucket heads for the whole exploration,
   so expanding a state allocates neither. Measured on
   quiescence-swap with [Gc.minor_words] around one [check_all]: 73.36
   words per state with both allocated on every expansion, 28.36 with
   one iterator per exploration; the bound is 40. -- *)

let test_minor_words_bound () =
  let model, props = List.hd (PM.shipped ()) in
  let before = Gc.minor_words () in
  let reports = check_model model props in
  let words = Gc.minor_words () -. before in
  let states = (List.hd reports).P.r_states in
  Alcotest.(check int) "the whole swap was explored" 200_987 states;
  let per_state = words /. float_of_int states in
  if per_state >= 40.0 then
    Alcotest.failf "check_model allocates %.2f minor words per state" per_state

(* -- ids are 31-bit: an entry that does not fit raises rather than
   wrapping, and a bound past the id range is refused up front -- *)

let test_id_range () =
  let v = P.Ids.create () in
  let limit = 1 lsl 31 in
  List.iter (P.Ids.push v) [ 0; limit - 1 ];
  Alcotest.(check (list int)) "round trip at both ends" [ 0; limit - 1 ]
    [ P.Ids.get v 0; P.Ids.get v 1 ];
  List.iter
    (fun x ->
      match P.Ids.push v x with
      | () -> Alcotest.failf "%d pushed" x
      | exception Invalid_argument _ -> ())
    [ limit; -1; max_int; min_int ];
  Alcotest.(check int) "nothing was appended" 2 (P.Ids.length v);
  let model, props = PM.guard () in
  Alcotest.check_raises "max_states past the id range"
    (Invalid_argument "Proto_check.check_model: max_states > 2^31")
    (fun () -> ignore (check_model ~max_states:(limit + 1) model props));
  Alcotest.(check bool) "max_states at the id range" true
    (P.clean (check_model ~max_states:limit model props))

(* -- the seen-set's state codec -- *)

let prop_codec_roundtrip =
  let slot =
    QCheck.Gen.(
      frequency
        [ (4, small_signed_int); (2, int); (1, oneofl [ 0; max_int; min_int; -1; 63; -64; 64 ]) ])
  in
  let arr = QCheck.Gen.(array_size (int_range 0 40) slot) in
  (* The second array is unrelated or differs from the first in one slot. *)
  let near a =
    QCheck.Gen.(
      if a = [||] then return a
      else
        map2
          (fun i v ->
            let b = Array.copy a in
            b.(i) <- v;
            b)
          (int_bound (Array.length a - 1))
          slot)
  in
  let arrays = QCheck.Gen.(arr >>= fun a -> map (fun b -> (a, b)) (oneof [ arr; near a ])) in
  QCheck.Test.make ~name:"codec: unpack . pack is the identity, pack is injective" ~count:1000
    QCheck.(make ~print:Print.(pair (array int) (array int)) arrays)
    (fun (a, b) ->
      let pa = P.Codec.pack a and pb = P.Codec.pack b in
      P.Codec.unpack pa (Array.length a) = a && (a = b) = (pa = pb))

(* -- every seeded historical bug is caught, with exactly the expected
   property set -- *)

let test_fixtures_detected () =
  let fixtures =
    List.map
      (fun (name, model, expect) -> P.check_fixture ~name ~expect model)
      (PM.seeded_bad ())
  in
  Alcotest.(check int) "four fixtures" 4 (List.length fixtures);
  Alcotest.(check bool) "all detected" true (P.fixtures_ok fixtures);
  List.iter
    (fun f ->
      Alcotest.(check (list string))
        (f.P.f_name ^ ": exactly the expected violations")
        (List.sort compare f.P.f_expect)
        (List.sort compare f.P.f_found))
    fixtures

(* -- the gate wants exactly the expected violations: a fixture that
   also violates a property it does not expect fails it -- *)

let test_unexpected_violation_fails () =
  let name, mp, expect = List.hd (PM.seeded_bad ()) in
  let dropped = List.hd expect in
  let f = P.check_fixture ~name ~expect:(List.tl expect) mp in
  Alcotest.(check (list string)) "nothing missing" [] f.P.f_missing;
  Alcotest.(check (list string)) "the dropped property is unexpected" [ dropped ]
    f.P.f_unexpected;
  Alcotest.(check bool) "gate fails" false (P.fixtures_ok [ f ])

(* -- a counterexample is a real trace: it replays on its model -- *)

let test_counterexample_replays () =
  List.iter
    (fun (name, ((model, _) as mp), expect) ->
      let f = P.check_fixture ~name ~expect mp in
      let replayed = ref 0 in
      List.iter
        (fun r ->
          match r.P.r_verdict with
          | P.Violated x ->
            (match P.replay model x.P.x_steps with
            | Ok () -> incr replayed
            | Error e -> Alcotest.fail (name ^ "/" ^ r.P.r_property ^ ": " ^ e))
          | _ -> ())
        f.P.f_reports;
      Alcotest.(check bool) (name ^ ": some counterexample replayed") true (!replayed > 0))
    (PM.seeded_bad ())

(* -- byte-identical output at any domain count -- *)

let test_deterministic_across_domains () =
  let run domains =
    let shipped = P.check_all ~domains (small_models ()) in
    let fixtures =
      List.map
        (fun (name, model, expect) -> P.check_fixture ~name ~expect model)
        (PM.seeded_bad ())
    in
    P.to_json ~shipped ~fixtures ~lowered:[]
  in
  Alcotest.(check string) "domains 1 = domains 4" (run 1) (run 4)

(* -- model well-formedness: random walks stay safe and replay -- *)

let test_random_walks_replay () =
  List.iter
    (fun (model, props) ->
      for seed = 1 to 10 do
        (match P.walk_violates model props ~seed ~steps:300 with
        | None -> ()
        | Some why ->
          Alcotest.fail
            (Printf.sprintf "seed %d violates %s" seed why));
        let trace, _ = P.random_walk model ~seed ~steps:300 in
        match P.replay model trace with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
      done)
    (small_models ())

(* -- conformance: an instrumented real implementation swap produces a
   transition log the quiescence model accepts step for step. One
   swapper, two sleeping waiters, blocking -> TAS — the same shape as
   [PM.quiescence ~waiters:[Wsleep; Wsleep]]. -- *)

let test_conformance_real_swap_log () =
  let log = ref [] in
  let cfg = { Config.default with Config.processors = 8 } in
  let sim = Sched.create cfg in
  Sched.run sim (fun () ->
      (* No feedback loop: the only protocol traffic in the log is ours. *)
      let lk = L.create ~home:0 ~impl:(L.Swappable L.Blocking) () in
      L.set_transition_probe lk
        (Some (fun tid label -> log := (tid, label) :: !log));
      L.lock lk;
      let waiters =
        List.init 2 (fun i ->
            Cthread.fork ~proc:(1 + i) (fun () ->
                Cthread.delay ((i + 1) * 30_000);
                L.lock lk;
                Cthread.work 10_000;
                L.unlock lk))
      in
      while L.waiting_now lk < 2 do
        Cthread.delay 10_000
      done;
      (* Long enough for both registered waiters to actually park. *)
      Cthread.delay 200_000;
      Alcotest.(check bool) "swap committed" true (L.swap_to lk L.Tas);
      L.unlock lk;
      Cthread.join_all waiters);
  let events = List.rev !log in
  (* Canonicalize tids to model roles: the swapper is whoever froze,
     the waiters are named in registration order. *)
  let swapper =
    match List.find_opt (fun (_, l) -> l = "freeze") events with
    | Some (tid, _) -> tid
    | None -> Alcotest.fail "no freeze in the log"
  in
  let waiters =
    List.filteri (fun i _ -> i < 2)
      (List.filter_map
         (fun (tid, l) -> if l = "register" then Some tid else None)
         events)
  in
  let role tid =
    if tid = swapper then Some "swapper"
    else
      match List.find_index (fun t -> t = tid) waiters with
      | Some i -> Some (Printf.sprintf "w%d" (i + 1))
      | None -> None
  in
  (* The model starts with the swapper already holding the lock, so its
     initial acquisition is not a model step. *)
  let steps =
    List.filter_map (fun (tid, l) -> Option.map (fun r -> (r, l)) (role tid)) events
  in
  let steps =
    match steps with ("swapper", "acquire") :: rest -> rest | s -> s
  in
  let model, _ = PM.quiescence ~waiters:[ PM.Wsleep; PM.Wsleep ] () in
  Alcotest.(check bool) "log has protocol steps" true (List.length steps > 8);
  match P.replay model steps with
  | Ok () -> ()
  | Error e ->
    Alcotest.fail
      (Printf.sprintf "implementation log diverges from the model: %s\nlog: %s" e
         (String.concat " " (List.map (fun (r, l) -> r ^ ":" ^ l) steps)))

(* -- lowering: the model counterexamples with a simulator workload
   arrive Confirmed with a bit-for-bit witness replay -- *)

let test_lowerings_confirmed () =
  let ls = Analysis_suite.proto_lowerings () in
  Alcotest.(check int) "two lowered counterexamples" 2 (List.length ls);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l.P.l_fixture ^ ": confirmed") true l.P.l_confirmed;
      Alcotest.(check bool) (l.P.l_fixture ^ ": replayed bit-for-bit") true
        l.P.l_replay_ok;
      Alcotest.(check bool) (l.P.l_fixture ^ ": non-empty schedule") true
        (l.P.l_schedule_len > 0))
    ls

let suite =
  [
    Alcotest.test_case "shipped protocols verify clean" `Slow test_shipped_clean;
    Alcotest.test_case "max_states stops as out of bounds" `Quick test_out_of_bounds;
    Alcotest.test_case "shared pass equals one pass per property" `Slow test_shared_pass;
    Alcotest.test_case "indexed successors equal a plain scan" `Slow test_successor_order;
    Alcotest.test_case "check_model footprint bound" `Quick test_footprint_bound;
    Alcotest.test_case "ids never wrap past 31 bits" `Quick test_id_range;
    Alcotest.test_case "check_model minor words bound" `Quick test_minor_words_bound;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "seeded bugs all caught" `Quick test_fixtures_detected;
    Alcotest.test_case "unexpected fixture violation fails the gate" `Quick
      test_unexpected_violation_fails;
    Alcotest.test_case "counterexamples replay on the model" `Quick
      test_counterexample_replays;
    Alcotest.test_case "byte-identical across domains" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "random walks stay safe and replay" `Quick
      test_random_walks_replay;
    Alcotest.test_case "real swap log conforms to the model" `Quick
      test_conformance_real_swap_log;
    Alcotest.test_case "counterexamples lower to confirmed witnesses" `Slow
      test_lowerings_confirmed;
  ]
