module Spec = struct
  type cond = { lo : int; hi : int option }
  type config = { c_name : string; c_value : int }

  type transition = {
    t_from : int;
    t_cond : cond;
    t_target : int;
    t_label : string;
    t_repeats : int;
    t_cost : Cost.t;
  }

  type guard_spec = {
    g_clamp_lo : int;
    g_clamp_hi : int;
    g_limit : int;
    g_cooldown : int;
    g_fallback : int;
    g_fallback_label : string;
    g_fallback_cost : Cost.t;
  }

  type monotone = Up_at_low | Up_at_high | Unordered

  type t = {
    s_name : string;
    s_kind : string;
    s_attribute : string;
    s_metric : string;
    s_monotone : monotone;
    s_configs : config list;
    s_initial : int;
    s_transitions : transition list;
    s_guard : guard_spec option;
  }

  let cond ?hi lo = { lo; hi }

  let reachable ~next init =
    let rec close seen frontier =
      match frontier with
      | [] -> List.sort compare seen
      | v :: rest ->
        let nexts =
          List.sort_uniq compare (List.filter (fun v' -> not (List.mem v' seen)) (next v))
        in
        close (seen @ nexts) (rest @ nexts)
    in
    close [ init ] [ init ]

  let matches c m =
    m >= c.lo && match c.hi with None -> true | Some hi -> m <= hi

  let find_config t v = List.find_opt (fun c -> c.c_value = v) t.s_configs

  let config_name t v =
    match find_config t v with Some c -> c.c_name | None -> string_of_int v

  let validate t =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    if t.s_configs = [] then err "no configurations";
    let rec dups = function
      | a :: (b :: _ as rest) ->
        if a.c_value = b.c_value then
          err "duplicate configuration value %d (%s/%s)" a.c_value a.c_name b.c_name
        else if a.c_value > b.c_value then
          err "configurations not in ascending value order at %d" a.c_value;
        dups rest
      | _ -> ()
    in
    dups t.s_configs;
    let known v = List.exists (fun c -> c.c_value = v) t.s_configs in
    if t.s_configs <> [] && not (known t.s_initial) then
      err "initial configuration %d is not declared" t.s_initial;
    List.iteri
      (fun i tr ->
        let where = Printf.sprintf "transition %d (%s)" i tr.t_label in
        if not (known tr.t_from) then err "%s: unknown source %d" where tr.t_from;
        if not (known tr.t_target) then err "%s: unknown target %d" where tr.t_target;
        if tr.t_label = "" then err "%s: empty label" where;
        if tr.t_from = tr.t_target then
          err "%s: self-targeting (a no-op reconfiguration)" where;
        if tr.t_repeats < 1 then err "%s: repeats %d < 1" where tr.t_repeats;
        (match tr.t_cond.hi with
        | Some hi when hi < tr.t_cond.lo ->
          err "%s: empty condition [%d, %d]" where tr.t_cond.lo hi
        | _ -> ()))
      t.s_transitions;
    (match t.s_guard with
    | None -> ()
    | Some g ->
      if g.g_clamp_hi < g.g_clamp_lo then
        err "guard: inverted clamp [%d, %d]" g.g_clamp_lo g.g_clamp_hi;
      if not (known g.g_fallback) then
        err "guard: unknown fallback configuration %d" g.g_fallback;
      if g.g_limit < 1 then err "guard: pathological limit %d < 1" g.g_limit;
      if g.g_cooldown < 0 then err "guard: negative cooldown %d" g.g_cooldown);
    List.rev !errs

  type state = {
    last : int option;
    live : (int * int) option;
    streak : int;
    cooldown : int;
  }

  type action =
    | Stay
    | Fire of {
        target : int;
        label : string;
        cost : Cost.t;
        on_fail : state;
        transition : int option;
      }

  let fresh = { last = None; live = None; streak = 0; cooldown = 0 }

  (* The first transition out of [cur] whose condition holds at [m],
     with its priority index. *)
  let enabled spec cur m =
    let rec go i = function
      | [] -> None
      | tr :: rest ->
        if tr.t_from = cur && matches tr.t_cond m then Some (i, tr) else go (i + 1) rest
    in
    go 0 spec.s_transitions

  let step spec st ~metric ~cur =
    let live = match st.last with Some c when c <> cur -> None | _ -> st.live in
    let st = { st with last = Some cur; live = None } in
    let in_clamp, st, fallback =
      match spec.s_guard with
      | None -> (true, st, None)
      | Some g ->
        let in_clamp = metric >= g.g_clamp_lo && metric <= g.g_clamp_hi in
        if st.cooldown > 0 then (in_clamp, { st with cooldown = st.cooldown - 1 }, None)
        else if in_clamp then (true, { st with streak = 0 }, None)
        else if st.streak + 1 < g.g_limit then (false, { st with streak = st.streak + 1 }, None)
        else (false, { st with streak = 0; cooldown = g.g_cooldown }, Some g)
    in
    match fallback with
    | Some g ->
      (* A failed fallback leaves the object pathological: the very
         next out-of-clamp sample re-orders it. *)
      ( st,
        Fire
          {
            target = g.g_fallback;
            label = g.g_fallback_label;
            cost = g.g_fallback_cost;
            on_fail = { st with streak = g.g_limit - 1; cooldown = 0 };
            transition = None;
          } )
    | None -> (
      (* An out-of-clamp sample feeds only the guard: it matches no
         transition, so like any non-matching sample it resets the
         counters. *)
      match if in_clamp then enabled spec cur metric else None with
      | None -> (st, Stay)
      | Some (i, tr) ->
        let n = match live with Some (j, n) when j = i -> n + 1 | _ -> 1 in
        if n < tr.t_repeats then ({ st with live = Some (i, n) }, Stay)
        else
          (* The counter resets only when the apply succeeds, so a
             failed apply retries at the next enabled sample. *)
          ( st,
            Fire
              {
                target = tr.t_target;
                label = tr.t_label;
                cost = tr.t_cost;
                on_fail = { st with live = Some (i, tr.t_repeats) };
                transition = Some i;
              } ))

  (* Replay a recorded (virtual time, label) log as a Ψ chain from the
     initial configuration; first match wins, the priority order, and
     the guardrail fallback is a declared Ψ from anywhere. *)
  let check_log spec log =
    let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
    let target current label =
      match
        List.find_opt (fun tr -> tr.t_from = current && tr.t_label = label) spec.s_transitions
      with
      | Some tr -> Some tr.t_target
      | None -> (
        match spec.s_guard with
        | Some g when g.g_fallback_label = label -> Some g.g_fallback
        | _ -> None)
    in
    let rec resolve current = function
      | [] -> Ok ()
      | (at, label) :: rest -> (
        match target current label with
        | Some next -> resolve next rest
        | None ->
          fail "log entry \"%s\" at t=%d: no declared transition from %s" label at
            (config_name spec current))
    in
    let rec ordered last_time = function
      | [] -> Ok ()
      | (at, _) :: rest ->
        if at < last_time then fail "transition at %d out of time order" at else ordered at rest
    in
    Result.bind (resolve spec.s_initial log) (fun () -> ordered min_int log)
end
