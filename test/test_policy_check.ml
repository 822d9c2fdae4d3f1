(* Tests of the declarative policy IR (Spec validate/step) and the
   static policy checker: shipped specs verify clean, seeded-bad
   fixtures are flagged, the running feedback loop honours hysteresis
   streaks across config changes and failed applies, and the guard's
   cooldown edges stay pinned. *)

module Spec = Adaptive_core.Policy.Spec
module PC = Analysis.Policy_check

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
        [
          trans ~repeats:0 0 (Spec.cond 5 ~hi:2) 0 "self";
          trans 0 (Spec.cond 0) 9 "out";
          trans 0 (Spec.cond 0) 9 "";
        ];
      s_guard = None;
    }
  in
  let errs = Spec.validate bad in
  Alcotest.(check bool) "validate flags it" true (List.length errs >= 4);
  (* Spec.step logs [t_label] as it is, and Spec.check_log looks the
     logged label up among the declared ones. *)
  Alcotest.(check bool) "empty label flagged" true
    (List.mem "transition 2 (): empty label" errs);
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

(* -- every thrash and conflict finding replays on the running loop --

   A finding names its held input as a region ("= 2", "in [a, b]",
   ">= a", or "outside [lo, hi]" for a guard's pathological sample);
   its representative is the region's low end, or [hi + 1]. Feeding it
   again and again to [Adaptive.feed], every apply succeeding, must
   visit the reported configurations in order, from the first one. *)

let representative desc =
  let ints =
    List.filter_map int_of_string_opt
      (String.split_on_char ' '
         (String.map (fun c -> if (c >= '0' && c <= '9') || c = '-' then c else ' ') desc))
  in
  if String.starts_with ~prefix:"outside" desc then List.nth ints 1 + 1
  else List.hd ints

(* A conflict's region, "<metric a> <desc a>, <metric b> <desc b>",
   as the two representatives. *)
let held_pair (a : Spec.t) (b : Spec.t) region =
  let pa = a.Spec.s_metric ^ " " and sep = ", " ^ b.Spec.s_metric ^ " " in
  let rec find i = if String.sub region i (String.length sep) = sep then i else find (i + 1) in
  let i = find 0 in
  let j = i + String.length sep in
  ( representative (String.sub region (String.length pa) (i - String.length pa)),
    representative (String.sub region j (String.length region - j)) )

(* Run [players] (each a spec held at one metric) in turn over one
   shared attribute starting at [start]; the configurations it takes. *)
let replay players start =
  let cur = ref start and seen = ref [ start ] in
  Spec_loop.in_sim (fun () ->
      let loops =
        List.map
          (fun (spec, m) -> (Spec_loop.create spec ~cur ~accept:Spec_loop.always, m))
          players
      in
      for _ = 1 to 100 do
        List.iter
          (fun (loop, m) ->
            if Spec_loop.feed loop m <> None && !cur <> List.hd !seen then
              seen := !cur :: !seen)
          loops
      done);
  List.rev !seen

let test_findings_replay () =
  let replayed = ref 0 in
  List.iter
    (fun (_, specs, _) ->
      let by_name n = List.find (fun s -> s.Spec.s_name = n) specs in
      let value spec name =
        (List.find (fun c -> c.Spec.c_name = name) spec.Spec.s_configs).Spec.c_value
      in
      List.iter
        (fun f ->
          let players =
            match (f.PC.f_kind, f.PC.f_region) with
            | "thrash-cycle", Some desc ->
              let spec = by_name f.PC.f_spec in
              [ (spec, representative desc) ]
            | "cross-object-conflict", Some region -> (
              match String.split_on_char '+' f.PC.f_spec with
              | [ a; b ] ->
                let a = by_name (String.trim a) and b = by_name (String.trim b) in
                let ma, mb = held_pair a b region in
                [ (a, ma); (b, mb) ]
              | _ -> Alcotest.fail "malformed conflict finding")
            | _ -> []
          in
          if players <> [] then begin
            incr replayed;
            let spec = fst (List.hd players) in
            let cycle = List.map (value spec) f.PC.f_configs in
            let seen = replay players (List.hd cycle) in
            let k = List.length cycle in
            Alcotest.(check (list int))
              (f.PC.f_spec ^ ": " ^ f.PC.f_message)
              (List.init ((2 * k) + 1) (fun i -> List.nth cycle (i mod k)))
              (List.filteri (fun i _ -> i <= 2 * k) seen)
          end)
        (PC.check_fixture ~name:"" ~expect:[] specs).PC.x_findings)
    (Analysis_suite.policy_fixtures ());
  Alcotest.(check int) "thrash and conflict findings replayed" 3 !replayed

(* -- the loop's semantics, on the rw-lock spec -- *)

(* [f step] runs in a simulation, where [step] feeds one sample to a
   loop running the rw-lock spec over [cfgv] (see [Spec_loop.step]). *)
let with_rw_loop ~accept cfgv f =
  Spec_loop.in_sim (fun () ->
      f (Spec_loop.step (Spec_loop.create (Locks.Rw_lock.policy_spec ()) ~cur:cfgv ~accept)))

let test_loop_rw_hysteresis () =
  (* writer-pref on the first waiting writer; reader-pref only after 3
     consecutive writer-free samples, with the streak broken by any
     non-matching sample. *)
  let cfgv = ref 0 in
  with_rw_loop cfgv ~accept:Spec_loop.always (fun step ->
      Alcotest.(check string) "calm at start" "none" (step 0);
      Alcotest.(check string) "first writer flips" "writer-pref" (step 3);
      Alcotest.(check string) "calm 1" "none" (step 0);
      Alcotest.(check string) "calm 2" "none" (step 0);
      Alcotest.(check string) "straggler breaks the streak" "none" (step 2);
      Alcotest.(check string) "calm 1 again" "none" (step 0);
      Alcotest.(check string) "calm 2 again" "none" (step 0);
      Alcotest.(check string) "calm 3 fires" "reader-pref" (step 0));
  Alcotest.(check int) "back to reader pref" 0 !cfgv

let test_loop_counter_resets_on_config_change () =
  let cfgv = ref 0 in
  with_rw_loop cfgv ~accept:Spec_loop.always (fun step ->
      Alcotest.(check string) "flip to writer" "writer-pref" (step 3);
      Alcotest.(check string) "calm 1" "none" (step 0);
      Alcotest.(check string) "calm 2" "none" (step 0);
      (* an external agent bounces the attribute: the streak must restart *)
      cfgv := 0;
      Alcotest.(check string) "external flip observed" "none" (step 0);
      cfgv := 1;
      Alcotest.(check string) "fresh streak 1" "none" (step 0);
      Alcotest.(check string) "fresh streak 2" "none" (step 0);
      Alcotest.(check string) "fresh streak 3 fires" "reader-pref" (step 0))

let test_loop_failed_apply_retries () =
  (* an apply that reports failure (external agent losing the
     ownership race) must not consume the hysteresis streak: the very
     next enabled sample retries instead of re-accumulating. *)
  let cfgv = ref 1 and ok = ref false in
  with_rw_loop cfgv ~accept:(fun _ -> !ok) (fun step ->
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
      Alcotest.(check string) "streak 3 fires" "reader-pref" (step 0))

let test_loop_inert_off_spec () =
  (* soundness caveat pinned: an externally forced configuration value
     outside the spec leaves the running policy inert. *)
  let cfgv = ref 99 in
  with_rw_loop cfgv
    ~accept:(fun _ -> Alcotest.fail "must not reconfigure from an off-spec config")
    (fun step ->
      List.iter
        (fun m -> Alcotest.(check string) "stays off-spec" "none" (step m))
        [ 0; 1; 5; 0 ])

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

(* -- the guard's cooldown edges, through the step -- *)

let test_guard_cooldown_resumes () =
  let spec =
    {
      (Locks.Rw_lock.policy_spec ()) with
      Spec.s_guard =
        Some
          {
            Spec.g_clamp_lo = 0;
            g_clamp_hi = 10;
            g_limit = 2;
            g_cooldown = 3;
            g_fallback = 0;
            g_fallback_label = "fallback";
            g_fallback_cost = cost;
          };
    }
  in
  let st = ref Spec.fresh and fallbacks = ref 0 in
  (* One observation, pathological (outside the clamp) or not; [true]
     when it orders the fallback. *)
  let note p =
    let next, action = Spec.step spec !st ~metric:(if p then 99 else 0) ~cur:0 in
    st := next;
    match action with
    | Spec.Fire { transition = None; _ } ->
      incr fallbacks;
      true
    | _ -> false
  in
  Alcotest.(check bool) "streak 1" false (note true);
  Alcotest.(check bool) "streak 2 fires" true (note true);
  Alcotest.(check int) "one fallback" 1 !fallbacks;
  (* cooldown: three pathological samples ignored *)
  Alcotest.(check bool) "cooldown 1" false (note true);
  Alcotest.(check bool) "cooldown 2" false (note true);
  Alcotest.(check bool) "cooldown 3" false (note true);
  (* counting resumes *)
  Alcotest.(check bool) "fresh streak 1" false (note true);
  Alcotest.(check bool) "fresh streak 2 fires" true (note true);
  Alcotest.(check int) "two fallbacks" 2 !fallbacks;
  (* a healthy sample during a streak resets it *)
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "streak 1" false (note true);
  Alcotest.(check bool) "healthy resets" false (note false);
  Alcotest.(check bool) "streak 1 again" false (note true);
  Alcotest.(check bool) "streak 2 fires again" true (note true)

(* -- differential: the running loop against a reference interpreter --

   [Reference] is the closure interpreter the policy was before its
   step became an explicit state, kept here verbatim (with its guard
   state machine) as the oracle. It is compared with an [Adaptive.t]
   loop fed the same samples, so the loop's adoption of a failed fire's
   [on_fail] state is covered too. On in-clamp samples the two must
   take the same decision at every sample, whatever the apply outcomes
   and whatever external agents do to the attribute (off-spec values
   included). Out-of-clamp samples are where the semantics deliberately
   differ: see "out-of-range score does not swap" in test_switch_lock. *)

module Reference = struct
  type decision =
    | Stay
    | Fire of { label : string; cost : Adaptive_core.Cost.t; apply : unit -> bool }

  type guard = {
    limit : int;
    cooldown : int;
    mutable streak : int;
    mutable cooldown_left : int;
  }

  let note t ~pathological =
    if t.cooldown_left > 0 then begin
      t.cooldown_left <- t.cooldown_left - 1;
      false
    end
    else if pathological then begin
      t.streak <- t.streak + 1;
      if t.streak >= t.limit then begin
        t.streak <- 0;
        t.cooldown_left <- t.cooldown;
        true
      end
      else false
    end
    else begin
      t.streak <- 0;
      false
    end

  let fallback_failed t =
    t.cooldown_left <- 0;
    t.streak <- Int.max 0 (t.limit - 1)

  let matches (c : Spec.cond) m =
    m >= c.Spec.lo && match c.Spec.hi with None -> true | Some hi -> m <= hi

  let compile ~read ~apply ~metric (spec : Spec.t) =
    let ts = Array.of_list spec.Spec.s_transitions in
    let counters = Array.make (Int.max 1 (Array.length ts)) 0 in
    let last_cfg = ref None in
    let guard =
      match spec.Spec.s_guard with
      | None -> None
      | Some g ->
        Some
          ( g,
            { limit = g.Spec.g_limit; cooldown = g.Spec.g_cooldown; streak = 0; cooldown_left = 0 }
          )
    in
    let reset_all () = Array.fill counters 0 (Array.length counters) 0 in
    let fire i (tr : Spec.transition) =
      Fire
        {
          label = tr.Spec.t_label;
          cost = tr.Spec.t_cost;
          apply =
            (fun () ->
              let ok = apply tr.Spec.t_target in
              if ok then counters.(i) <- 0;
              ok);
        }
    in
    let consult m cur =
      let enabled = ref (-1) in
      for i = 0 to Array.length ts - 1 do
        let tr = ts.(i) in
        if !enabled < 0 && tr.Spec.t_from = cur && matches tr.Spec.t_cond m then enabled := i
        else counters.(i) <- 0
      done;
      if !enabled < 0 then Stay
      else begin
        let i = !enabled in
        let tr = ts.(i) in
        counters.(i) <- counters.(i) + 1;
        if counters.(i) >= tr.Spec.t_repeats then fire i tr else Stay
      end
    in
    fun obs ->
      let raw = metric obs in
      let cur = read () in
      (match !last_cfg with
      | Some c when c = cur -> ()
      | Some _ -> reset_all ()
      | None -> ());
      last_cfg := Some cur;
      match guard with
      | None -> consult raw cur
      | Some (g, state) ->
        let clamped = Int.max g.Spec.g_clamp_lo (Int.min g.Spec.g_clamp_hi raw) in
        if note state ~pathological:(clamped <> raw) then
          Fire
            {
              label = g.Spec.g_fallback_label;
              cost = g.Spec.g_fallback_cost;
              apply =
                (fun () ->
                  let ok = apply g.Spec.g_fallback in
                  if not ok then fallback_failed state;
                  ok);
            }
        else consult clamped cur
end

(* Every spec a running object or a fixture declares. *)
let all_specs () =
  PC.shipped ()
  @ List.concat_map (fun (_, specs, _) -> specs) (Analysis_suite.policy_fixtures ())

(* Metric values worth sampling for [spec]: every threshold and its
   neighbours, inside the guard's clamp when there is one. *)
let samples_of (spec : Spec.t) =
  let edges =
    List.concat_map
      (fun t ->
        let c = t.Spec.t_cond in
        [ c.Spec.lo - 1; c.Spec.lo; c.Spec.lo + 1 ]
        @
        match c.Spec.hi with
        | Some h -> [ h - 1; h; h + 1; h + 1000 ]
        | None -> [ (c.Spec.lo * 2) + 7 ])
      spec.Spec.s_transitions
  in
  let vs = List.sort_uniq compare (0 :: 1 :: edges) in
  let vs =
    match spec.Spec.s_guard with
    | None -> vs
    | Some g -> List.filter (fun v -> v >= g.Spec.g_clamp_lo && v <= g.Spec.g_clamp_hi) vs
  in
  Array.of_list vs

type op = Sample of int * bool | Set of int

let gen_ops =
  QCheck.Gen.(
    list_size (1 -- 120)
      (frequency
         [
           ( 12,
             map2
               (fun k ok -> Sample (k, ok))
               (int_bound 10_000)
               (frequency [ (3, return true); (1, return false) ]) );
           (1, map (fun k -> Set k) (int_bound 10_000));
         ]))

let print_ops ops =
  String.concat " "
    (List.map
       (function
         | Sample (k, ok) -> Printf.sprintf "s%d%s" k (if ok then "" else "!")
         | Set k -> Printf.sprintf "=%d" k)
       ops)

(* Run [ops] through the reference interpreter and a loop running
   [spec], each over its own copy of the attribute; [None] when they
   agree at every sample (target and success of each apply) and on the
   loop's logged labels and registry cost. Runs inside a simulation. *)
let diverges (spec : Spec.t) ops =
  let samples = samples_of spec in
  let sets =
    Array.of_list (List.map (fun c -> c.Spec.c_value) spec.Spec.s_configs @ [ -1; 999_999 ])
  in
  let outcome = ref true in
  let cur_r = ref spec.Spec.s_initial and cur_c = ref spec.Spec.s_initial in
  let target_r = ref None in
  let reference =
    Reference.compile spec
      ~read:(fun () -> !cur_r)
      ~apply:(fun v ->
        target_r := Some v;
        if !outcome then cur_r := v;
        !outcome)
      ~metric:(fun (m : int) -> m)
  in
  let id = List.length (Adaptive_core.Registry.snapshot ()) in
  let loop = Spec_loop.create spec ~cur:cur_c ~accept:(fun _ -> !outcome) in
  let labels = ref [] and total = ref Adaptive_core.Cost.zero in
  let rec go i = function
    | [] -> None
    | Set k :: rest ->
      let v = sets.(k mod Array.length sets) in
      cur_r := v;
      cur_c := v;
      go (i + 1) rest
    | Sample (k, ok) :: rest -> (
      let m = samples.(k mod Array.length samples) in
      outcome := ok;
      match (reference m, Spec_loop.feed loop m) with
      | Reference.Stay, None -> go (i + 1) rest
      | Reference.Fire r, Some (target, ok_c) ->
        let ok_r = r.apply () in
        if ok_r then begin
          labels := r.label :: !labels;
          total := Adaptive_core.Cost.( + ) !total r.cost
        end;
        if ok_r = ok_c && !target_r = Some target && !cur_r = !cur_c then go (i + 1) rest
        else Some (Printf.sprintf "op %d (metric %d): applies disagree" i m)
      | _ ->
        Some (Printf.sprintf "op %d (metric %d, config %d): decisions differ" i m !cur_c))
  in
  match go 0 ops with
  | Some _ as d -> d
  | None ->
    let stats = (List.nth (Adaptive_core.Registry.snapshot ()) id).Adaptive_core.Registry.stats in
    if List.map snd (Adaptive_core.Adaptive.log loop.Spec_loop.loop) <> List.rev !labels then
      Some "logged labels differ"
    else if stats.Adaptive_core.Registry.total_cost <> !total then Some "costs differ"
    else None

let prop_feed_matches_reference =
  QCheck.Test.make ~name:"feed matches the reference interpreter" ~count:300
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      let verdict = ref None in
      Spec_loop.in_sim (fun () ->
          verdict :=
            List.find_map
              (fun spec -> Option.map (fun why -> (spec.Spec.s_name, why)) (diverges spec ops))
              (all_specs ()));
      match !verdict with
      | None -> true
      | Some (name, why) -> QCheck.Test.fail_reportf "%s: %s" name why)

let suite =
  [
    Alcotest.test_case "shipped specs verify clean" `Quick test_shipped_clean;
    Alcotest.test_case "shipped specs validate" `Quick test_shipped_specs_validate;
    Alcotest.test_case "fixtures flagged" `Quick test_fixtures_flagged;
    Alcotest.test_case "malformed spec reported" `Quick test_malformed_spec_reported;
    Alcotest.test_case "thrash and conflict findings replay" `Quick test_findings_replay;
    Alcotest.test_case "conflicts need shared attribute" `Quick
      test_conflict_needs_shared_attribute;
    Alcotest.test_case "compiled rw hysteresis" `Quick test_loop_rw_hysteresis;
    Alcotest.test_case "counter resets on config change" `Quick
      test_loop_counter_resets_on_config_change;
    Alcotest.test_case "failed apply retries" `Quick test_loop_failed_apply_retries;
    Alcotest.test_case "inert off-spec" `Quick test_loop_inert_off_spec;
    Alcotest.test_case "constructor threshold validation" `Quick
      test_constructor_threshold_validation;
    Alcotest.test_case "guard cooldown resumes" `Quick test_guard_cooldown_resumes;
    QCheck_alcotest.to_alcotest prop_feed_matches_reference;
  ]
