(* Protocol models for the explicit-state checker. See the .mli for
   the modelling granularity: one guard-held compound section of the
   real implementation = one atomic rule here. *)

module Protocol = Adaptive_core.Protocol
module S = Protocol.Spec
open S

type waiter = Wsleep | Wtimed

type qbug = Stolen_freeze_commit | Lost_sleeper | Double_grant | No_age_out

let k = fun v -> K v

(* ---- the Lock_core implementation quiescence swap ---- *)

(* A waiter's slots, for the properties. *)
type wslots = {
  w_name : string;
  w_status : Protocol.slot;
  w_wake : Protocol.slot;
  w_pc : Protocol.slot;
  w_reg : Protocol.slot;
  w_flag : Protocol.slot;
  w_kick : Protocol.slot;
}

(* Cast: role 1 is the swapper (initially holding the lock), roles
   2..n+1 the waiters. Shared words mirror the implementation: [ctl]
   is the freeze word (0 = no swap, 1 = the swapper's freeze token),
   [ack] the outstanding-kick count, [impl] the current
   implementation (0 = blocking: release hands off to the
   lowest-ticket registered waiter and sleepers park; 1 = TAS: release
   frees the word and grants nobody), [lockword]/[owner] the lock
   itself, and per waiter a registration bit, a mailbox flag
   (0 waiting / 1 granted / 2 migrate), an in-flight-kick bit and the
   ticket. The abstract clock: 0 = inside the drain window, 1 = past
   the drain deadline (drain timeouts and waiter deadlines fire),
   2 = past deadline+grace (abandoned-swap recovery fires). *)

let quiescence ?bug ~waiters () =
  let n = List.length waiters in
  if n < 1 then invalid_arg "Proto_models.quiescence";
  let wname i = Printf.sprintf "w%d" i in
  let wid i = 1 + i in
  let reg i = Printf.sprintf "reg%d" i
  and flag i = Printf.sprintf "flag%d" i
  and kick i = Printf.sprintf "kick%d" i
  and tk i = Printf.sprintf "tk%d" i in
  let shared =
    [ ("lockword", 1); ("owner", 1); ("ctl", 0); ("ack", 0); ("impl", 0); ("tkt", 1);
      ("committed", 0); ("rolled", 0); ("recovered", 0) ]
    @ List.concat
        (List.mapi
           (fun i _ ->
             let i = i + 1 in
             [ (reg i, 0); (flag i, 0); (kick i, 0); (tk i, 0) ])
           waiters)
  in
  let roles =
    { r_name = "swapper"; r_flavor = Swapper; r_crashable = true; r_locals = [ ("cs", 1) ] }
    :: List.mapi
         (fun i w ->
           { r_name = wname (i + 1);
             r_flavor = (match w with Wsleep -> Sleeping | Wtimed -> Timed);
             r_crashable = true; r_locals = [ ("cs", 0) ] })
         waiters
  in
  let widxs = List.mapi (fun i _ -> i + 1) waiters in
  (* Everyone still registered is strictly younger than ticket [tk j]
     — i.e. j is the queue head. *)
  let head j =
    All
      (C (Eq, S (reg j), k 1)
      :: List.filter_map
           (fun i ->
             if i = j then None
             else Some (Any [ C (Eq, S (reg i), k 0); C (Gt, S (tk i), S (tk j)) ]))
           widxs)
  in
  (* Release, as the implementation does it: under TAS free the word;
     under blocking hand off to the queue head (keeping the word
     held), waking it if it sleeps, else free the word. *)
  let release_rules ~role ~from_ =
    rule ~role ~from_ ~done_:true ~guard:(C (Eq, S "impl", k 1))
      ~acts:[ Write ("lockword", k 0); Write ("owner", k 0); Set ("cs", k 0) ]
      ~label:"free" 99
    :: rule ~role ~from_ ~done_:true
         ~guard:(All (C (Eq, S "impl", k 0) :: List.map (fun i -> C (Eq, S (reg i), k 0)) widxs))
         ~acts:[ Write ("lockword", k 0); Write ("owner", k 0); Set ("cs", k 0) ]
         ~label:"free" 99
    :: List.map
         (fun j ->
           rule ~role ~from_ ~done_:true
             ~guard:(All [ C (Eq, S "impl", k 0); head j ])
             ~acts:
               [ Write (flag j, k 1); Write ("owner", k (wid j)); Write (reg j, k 0);
                 Set ("cs", k 0); Unpark (wname j) ]
             ~label:"grant" 99)
         widxs
  in
  (* The kick: one guarded section walking the queue. The seeded bugs
     mistreat sleeping waiters exactly as the historical code did. *)
  let kick_acts =
    let kick_one j =
      If
        ( C (Eq, S (reg j), k 1),
          [ Write (kick j, k 1); Write (flag j, k 2); Write ("ack", Add (S "ack", k 1));
            Unpark (wname j) ],
          [] )
    in
    match bug with
    | Some Lost_sleeper ->
      List.concat_map
        (fun j ->
          [ If (All [ C (Eq, S (reg j), k 1); C (Eq, Status (wname j), k 1) ],
                [ Write (reg j, k 0) ], []);
            kick_one j ])
        widxs
    | Some Double_grant ->
      List.concat_map
        (fun j ->
          [ If (All [ C (Eq, S (reg j), k 1); C (Eq, Status (wname j), k 1) ],
                [ Write (reg j, k 0); Write (flag j, k 1); Unpark (wname j) ], []);
            kick_one j ])
        widxs
    | _ -> List.map kick_one widxs
  in
  let swapper_rules =
    [ rule ~role:"swapper" ~from_:0 ~acts:[ Write ("ctl", k 1) ] ~label:"freeze" 1;
      rule ~role:"swapper" ~from_:0 ~label:"skip" 5;
      rule ~role:"swapper" ~from_:1 ~acts:kick_acts ~label:"kick" 2;
      rule ~role:"swapper" ~from_:2 ~guard:(C (Eq, S "ack", k 0)) ~label:"drain-ok" 3;
      rule ~role:"swapper" ~from_:2 ~timeout:true ~guard:(C (Ge, Clock, k 1))
        ~label:"drain-timeout" 4 ]
    @ (match bug with
      | Some Stolen_freeze_commit ->
        (* Pre-fix: commit without re-validating freeze ownership. *)
        [ rule ~role:"swapper" ~from_:3
            ~acts:[ Write ("impl", k 1); Write ("ctl", k 0); Write ("committed", k 1) ]
            ~label:"commit" 5 ]
      | _ ->
        [ rule ~role:"swapper" ~from_:3 ~guard:(C (Eq, S "ctl", k 1))
            ~acts:[ Write ("impl", k 1); Write ("ctl", k 0); Write ("committed", k 1) ]
            ~label:"commit" 5;
          rule ~role:"swapper" ~from_:3 ~guard:(C (Ne, S "ctl", k 1)) ~label:"stolen" 4 ])
    @ [ rule ~role:"swapper" ~from_:4
          ~acts:[ Write ("ack", k 0); Write ("ctl", k 0); Write ("rolled", k 1) ]
          ~label:"rollback" 5 ]
    @ release_rules ~role:"swapper" ~from_:5
  in
  (* Abandoned-swap recovery: any thread polling the freeze past
     deadline+grace CASes it away. Sites are the two await_unfrozen
     calls: contended entry (pc 0) and the post-ack wait (pc 2). *)
  let recover_rules role =
    if bug = Some No_age_out then []
    else
      List.map
        (fun from_ ->
          let g, a = cas "ctl" ~expect:(k 1) ~set:(k 0) in
          rule ~role ~from_ ~timeout:true
            ~guard:(All [ C (Ge, Clock, k 2); g ])
            ~acts:[ a; Write ("recovered", k 1) ]
            ~label:"recover" from_)
        [ 0; 2 ]
  in
  let waiter_rules i w =
    let role = wname i in
    [ (* contended entry: pass the (unfrozen) freeze word, then either
         take the free lock or register. *)
      rule ~role ~from_:0
        ~guard:(All [ C (Eq, S "ctl", k 0); C (Eq, S "lockword", k 0) ])
        ~acts:[ Write ("lockword", k 1); Write ("owner", Me); Set ("cs", k 1) ]
        ~label:"acquire" 3;
      rule ~role ~from_:0
        ~guard:(All [ C (Eq, S "ctl", k 0); C (Eq, S "lockword", k 1) ])
        ~acts:
          [ Write (reg i, k 1); Write (flag i, k 0); Write (tk i, S "tkt");
            Write ("tkt", Add (S "tkt", k 1)) ]
        ~label:"register" 1;
      (* wait loop *)
      rule ~role ~from_:1 ~guard:(C (Eq, S (flag i), k 1))
        ~acts:[ Write (flag i, k 0); Set ("cs", k 1) ]
        ~label:"granted" 3;
      rule ~role ~from_:1 ~guard:(C (Eq, S (flag i), k 2))
        ~acts:
          [ If (All [ C (Ne, S "ctl", k 0); C (Eq, S (kick i), k 1) ],
                [ Write ("ack", Sub (S "ack", k 1)) ], []);
            Write (kick i, k 0); Write (flag i, k 0) ]
        ~label:"ack" 2;
      rule ~role ~from_:1
        ~guard:(All [ C (Eq, S "impl", k 1); C (Eq, S "lockword", k 0) ])
        ~acts:
          [ Write ("lockword", k 1); Write ("owner", Me); Write (reg i, k 0); Set ("cs", k 1) ]
        ~label:"acquire" 3;
      (* post-ack: poll the freeze word back to zero before rejoining
         the wait loop (await_unfrozen). *)
      rule ~role ~from_:2 ~guard:(C (Eq, S "ctl", k 0)) ~label:"unfrozen" 1 ]
    @ (match w with
      | Wsleep ->
        (* Sleeps only while the blocking impl is current — the
           re-check under guard is the PR 8 strand fix. *)
        [ rule ~role ~from_:1 ~park:true
            ~guard:(All [ C (Eq, S "impl", k 0); C (Eq, S (flag i), k 0) ])
            ~label:"park" 1 ]
      | Wtimed ->
        (* Deadline-bound waiters poll; the deadline fires anywhere in
           or past the drain window (clock >= 1), including inside the
           grace window, withdrawing the registration — or, when the
           grant crossed the deadline, taking and releasing the lock. *)
        [ rule ~role ~from_:0 ~timeout:true ~guard:(C (Ge, Clock, k 1)) ~done_:true
            ~label:"timeout" 0;
          rule ~role ~from_:1 ~timeout:true
            ~guard:
              (All [ C (Ge, Clock, k 1); C (Eq, S (reg i), k 1); C (Ne, S (flag i), k 1) ])
            ~acts:
              [ If (All [ C (Eq, S (flag i), k 2); C (Ne, S "ctl", k 0);
                          C (Eq, S (kick i), k 1) ],
                    [ Write ("ack", Sub (S "ack", k 1)) ], []);
                Write (kick i, k 0); Write (flag i, k 0); Write (reg i, k 0) ]
            ~done_:true ~label:"timeout" 1;
          rule ~role ~from_:1 ~timeout:true
            ~guard:(All [ C (Ge, Clock, k 1); C (Eq, S (flag i), k 1) ])
            ~acts:[ Write (flag i, k 0); Set ("cs", k 1) ]
            ~label:"timeout-grant" 3;
          rule ~role ~from_:2 ~timeout:true
            ~guard:
              (All [ C (Ge, Clock, k 1); C (Eq, S (flag i), k 0); C (Eq, S (reg i), k 1) ])
            ~acts:[ Write (reg i, k 0) ]
            ~done_:true ~label:"timeout" 2 ])
    @ release_rules ~role ~from_:3
    @ recover_rules role
  in
  let spec =
    { p_name =
        (match bug with
        | None -> "quiescence-swap"
        | Some Stolen_freeze_commit -> "quiescence-swap-stolen-freeze"
        | Some Lost_sleeper -> "quiescence-swap-lost-sleeper"
        | Some Double_grant -> "quiescence-swap-double-grant"
        | Some No_age_out -> "quiescence-swap-no-age-out");
      p_shared = shared;
      p_roles = roles;
      p_rules = swapper_rules @ List.concat (List.mapi (fun i w -> waiter_rules (i + 1) w) waiters);
      p_crash_budget = 1;
      p_clock_max = 2 }
  in
  let m = Protocol.compile spec in
  (* Predicates run on every reachable state: resolve their slots once. *)
  let slot = Protocol.shared_slot m in
  let get = Protocol.get in
  let ctl = slot "ctl" and impl = slot "impl" in
  let swapper = Protocol.status_slot m "swapper" in
  let cs = List.map (fun r -> Protocol.local_slot m r "cs") (Protocol.role_names m) in
  let ws =
    List.map
      (fun j ->
        let r = wname j in
        { w_name = r; w_status = Protocol.status_slot m r; w_wake = Protocol.wake_slot m r;
          w_pc = Protocol.pc_slot m r; w_reg = slot (reg j); w_flag = slot (flag j);
          w_kick = slot (kick j) })
      widxs
  in
  let holders st = List.fold_left (fun acc s -> acc + get st s) 0 cs in
  let grants st = List.fold_left (fun acc w -> acc + if get st w.w_flag = 1 then 1 else 0) 0 ws in
  let finished st s =
    match Protocol.status_at st s with Protocol.Done | Protocol.Crashed -> true | _ -> false
  in
  let props =
    [ Protocol.Safety
        { q_name = "mutex"; q_desc = "at most one thread in the critical section";
          q_bad =
            (fun _ st ->
              if holders st >= 2 then
                Some (Printf.sprintf "%d threads hold the lock" (holders st))
              else None) };
      Protocol.Safety
        { q_name = "no-double-grant";
          q_desc = "never more than one grant outstanding or held";
          q_bad =
            (fun _ st ->
              let g = holders st + grants st in
              if g >= 2 then Some (Printf.sprintf "%d grants outstanding/held" g) else None) };
      Protocol.Step
        { q_name = "freeze-owned-commit";
          q_desc = "a swap commits only while it still owns the freeze word";
          q_bad =
            (fun _ ~role ~label st ->
              if label = "commit" && get st ctl <> 1 then
                Some (Printf.sprintf "%s commits with ctl=%d" role (get st ctl))
              else None) };
      Protocol.Safety
        { q_name = "no-lost-sleeper";
          q_desc = "a parked waiter always has a grant path (registered under blocking, or a wakeup/grant pending)";
          q_bad =
            (fun _ st ->
              List.find_map
                (fun w ->
                  if Protocol.status_at st w.w_status = Protocol.Parked
                     && get st w.w_wake <> 1
                     && get st w.w_flag = 0
                     && (get st w.w_reg = 0 || get st impl = 1)
                  then
                    Some
                      (Printf.sprintf "%s parked with reg=%d impl=%d: nothing will wake it"
                         w.w_name (get st w.w_reg) (get st impl))
                  else None)
                ws) };
      Protocol.Liveness
        { q_name = "quiesce";
          q_desc =
            "every reachable state can reach a quiesced commit or rollback, even after one crash";
          q_goal =
            (fun _ st ->
              finished st swapper
              && List.for_all
                   (fun w ->
                     finished st w.w_status
                     || get st w.w_kick = 0
                        && get st w.w_flag <> 2
                        && get st w.w_pc <> 2
                        && not (get st w.w_pc = 0 && get st ctl <> 0)
                        && (Protocol.status_at st w.w_status = Protocol.Running
                           || get st w.w_wake = 1
                           || get st w.w_flag = 1
                           || (get st w.w_reg = 1 && get st impl = 0)))
                   ws) } ]
  in
  (m, props)

(* ---- MCS queue handoff ---- *)

let mcs ?(contenders = 3) () =
  if contenders < 2 then invalid_arg "Proto_models.mcs";
  let name i = Printf.sprintf "m%d" i in
  let next i = Printf.sprintf "next%d" i
  and flag i = Printf.sprintf "flag%d" i in
  let idxs = List.init contenders (fun i -> i + 1) in
  let shared =
    ("tail", 0) :: List.concat_map (fun i -> [ (next i, 0); (flag i, 0) ]) idxs
  in
  let roles =
    List.map
      (fun i ->
        { r_name = name i; r_flavor = Queued; r_crashable = false;
          r_locals = [ ("pred", 0); ("cs", 0) ] })
      idxs
  in
  let rules_of i =
    let role = name i in
    [ rule ~role ~from_:0 ~acts:[ Set ("pred", S "tail"); Write ("tail", Me) ]
        ~label:"enqueue" 1;
      rule ~role ~from_:1 ~guard:(C (Eq, L "pred", k 0)) ~acts:[ Set ("cs", k 1) ]
        ~label:"head" 3;
      rule ~role ~from_:2 ~guard:(C (Eq, S (flag i), k 1))
        ~acts:[ Write (flag i, k 0); Set ("cs", k 1) ]
        ~label:"granted" 3;
      rule ~role ~from_:3 ~done_:true
        ~guard:(All [ C (Eq, S "tail", Me); C (Eq, S (next i), k 0) ])
        ~acts:[ Write ("tail", k 0); Set ("cs", k 0) ]
        ~label:"exit" 99 ]
    @ List.filter_map
        (fun q ->
          if q = i then None
          else
            Some
              (rule ~role ~from_:1 ~guard:(C (Eq, L "pred", k q)) ~acts:[ Write (next q, Me) ]
                 ~label:"link" 2))
        idxs
    @ List.filter_map
        (fun q ->
          if q = i then None
          else
            Some
              (rule ~role ~from_:3 ~done_:true ~guard:(C (Eq, S (next i), k q))
                 ~acts:[ Write (flag q, k 1); Write (next i, k 0); Set ("cs", k 0) ]
                 ~label:"handoff" 99))
        idxs
  in
  let spec =
    { p_name = "mcs-handoff"; p_shared = shared; p_roles = roles;
      p_rules = List.concat_map rules_of idxs; p_crash_budget = 0; p_clock_max = 0 }
  in
  let m = Protocol.compile spec in
  let cs = List.map (fun i -> Protocol.local_slot m (name i) "cs") idxs in
  let flags = List.map (fun i -> Protocol.shared_slot m (flag i)) idxs in
  let statuses = List.map (fun i -> Protocol.status_slot m (name i)) idxs in
  let holders st = List.fold_left (fun acc s -> acc + Protocol.get st s) 0 cs in
  let grants st =
    List.fold_left (fun acc s -> acc + if Protocol.get st s = 1 then 1 else 0) 0 flags
  in
  let props =
    [ Protocol.Safety
        { q_name = "mutex"; q_desc = "at most one contender in the critical section";
          q_bad =
            (fun _ st ->
              if holders st >= 2 then
                Some (Printf.sprintf "%d contenders hold the lock" (holders st))
              else None) };
      Protocol.Safety
        { q_name = "no-double-grant";
          q_desc = "never more than one grant outstanding or held";
          q_bad =
            (fun _ st ->
              let g = holders st + grants st in
              if g >= 2 then Some (Printf.sprintf "%d grants outstanding/held" g) else None) };
      Protocol.Liveness
        { q_name = "all-served"; q_desc = "every contender eventually acquires and releases";
          q_goal =
            (fun _ st ->
              List.for_all (fun s -> Protocol.status_at st s = Protocol.Done) statuses) } ]
  in
  (m, props)

(* ---- the policy guard's streak/cooldown/fallback machine
   (Policy.Spec.step) ---- *)

let guard () =
  let limit = 2 and cooldown = 2 in
  let spec =
    { p_name = "guard-cooldown";
      p_shared = [ ("streak", 0); ("cool", 0) ];
      p_roles =
        [ { r_name = "monitor"; r_flavor = Monitor; r_crashable = false; r_locals = [] } ];
      p_rules =
        [ rule ~role:"monitor" ~from_:0 ~guard:(C (Gt, S "cool", k 0))
            ~acts:[ Write ("cool", Sub (S "cool", k 1)) ]
            ~label:"obs-cool" 0;
          rule ~role:"monitor" ~from_:0 ~guard:(C (Eq, S "cool", k 0))
            ~acts:[ Write ("streak", k 0) ]
            ~label:"obs-ok" 0;
          rule ~role:"monitor" ~from_:0
            ~guard:(All [ C (Eq, S "cool", k 0); C (Lt, S "streak", k (limit - 1)) ])
            ~acts:[ Write ("streak", Add (S "streak", k 1)) ]
            ~label:"obs-bad" 0;
          rule ~role:"monitor" ~from_:0
            ~guard:(All [ C (Eq, S "cool", k 0); C (Eq, S "streak", k (limit - 1)) ])
            ~acts:[ Write ("streak", k 0); Write ("cool", k cooldown) ]
            ~label:"fallback" 1;
          rule ~role:"monitor" ~from_:1 ~label:"fallback-ok" 0;
          (* A failed fallback cancels the cooldown and restores the
             streak to one short of the limit. *)
          rule ~role:"monitor" ~from_:1
            ~acts:[ Write ("cool", k 0); Write ("streak", k (limit - 1)) ]
            ~label:"fallback-failed" 0 ];
      p_crash_budget = 0;
      p_clock_max = 0 }
  in
  let m = Protocol.compile spec in
  let streak = Protocol.shared_slot m "streak" and cool = Protocol.shared_slot m "cool" in
  let pc = Protocol.pc_slot m "monitor" in
  let get = Protocol.get in
  let props =
    [ Protocol.Safety
        { q_name = "streak-bounded";
          q_desc = "the pathological streak never exceeds the declared limit";
          q_bad =
            (fun _ st ->
              let s = get st streak in
              if s > limit - 1 then Some (Printf.sprintf "streak=%d limit=%d" s limit)
              else None) };
      Protocol.Step
        { q_name = "fallback-at-limit";
          q_desc = "a fallback fires only at exactly limit consecutive pathological samples";
          q_bad =
            (fun _ ~role:_ ~label st ->
              if label = "fallback" && not (get st streak = limit - 1 && get st cool = 0) then
                Some
                  (Printf.sprintf "fallback with streak=%d cool=%d" (get st streak) (get st cool))
              else None) };
      Protocol.Step
        { q_name = "no-count-in-cooldown";
          q_desc = "cooldown suspends streak counting entirely";
          q_bad =
            (fun _ ~role:_ ~label st ->
              if (label = "obs-ok" || label = "obs-bad" || label = "fallback")
                 && get st cool > 0
              then Some (Printf.sprintf "%s during cooldown" label)
              else None) };
      Protocol.Liveness
        { q_name = "cooldown-terminates";
          q_desc = "the guard always returns to counting";
          q_goal = (fun _ st -> get st cool = 0 && get st pc = 0) } ]
  in
  (m, props)

let shipped () =
  [ quiescence ~waiters:[ Wsleep; Wsleep; Wtimed ] (); mcs ~contenders:3 (); guard () ]

let seeded_bad () =
  [ ( "stolen-freeze-commit",
      quiescence ~bug:Stolen_freeze_commit ~waiters:[ Wsleep; Wtimed ] (),
      [ "freeze-owned-commit"; "no-lost-sleeper"; "quiesce" ] );
    ( "lost-sleeper-on-swap",
      quiescence ~bug:Lost_sleeper ~waiters:[ Wsleep; Wtimed ] (),
      [ "no-lost-sleeper"; "quiesce" ] );
    ( "double-grant-on-swap",
      quiescence ~bug:Double_grant ~waiters:[ Wsleep; Wtimed ] (),
      [ "mutex"; "no-double-grant" ] );
    ( "no-age-out-wedge",
      quiescence ~bug:No_age_out ~waiters:[ Wsleep; Wtimed ] (),
      [ "quiesce" ] ) ]
