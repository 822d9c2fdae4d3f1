type decision =
  | No_change
  | Reconfigure of { label : string; cost : Cost.t; apply : unit -> bool }

type 'obs t = 'obs -> decision

module Guard = struct
  type t = {
    limit : int;
    cooldown : int;
    mutable streak : int;
    mutable cooldown_left : int;
    mutable fallbacks : int;
  }

  let create ~pathological_limit ~cooldown =
    if pathological_limit <= 0 || cooldown < 0 then invalid_arg "Policy.Guard.create";
    { limit = pathological_limit; cooldown; streak = 0; cooldown_left = 0; fallbacks = 0 }

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
        t.fallbacks <- t.fallbacks + 1;
        true
      end
      else false
    end
    else begin
      t.streak <- 0;
      false
    end

  let streak t = t.streak
  let fallbacks t = t.fallbacks

  (* A fallback whose apply reported failure (e.g. an implementation
     swap that rolled back) leaves the object pathological — but
     [note] has already zeroed the streak and started the cooldown,
     which would park the guard for [cooldown] further observations
     plus a whole fresh streak before retrying. Cancel the cooldown
     and restore the streak to one short of the limit, so the very
     next pathological observation re-orders the fallback (while a
     healthy observation still clears it). *)
  let fallback_failed t =
    t.cooldown_left <- 0;
    t.streak <- Int.max 0 (t.limit - 1)
end

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

  let compile ~read ~apply ~metric spec =
    let ts = Array.of_list spec.s_transitions in
    let counters = Array.make (Int.max 1 (Array.length ts)) 0 in
    let last_cfg = ref None in
    let guard =
      match spec.s_guard with
      | None -> None
      | Some g -> Some (g, Guard.create ~pathological_limit:g.g_limit ~cooldown:g.g_cooldown)
    in
    let reset_all () = Array.fill counters 0 (Array.length counters) 0 in
    let fire i (tr : transition) =
      Reconfigure
        {
          label = tr.t_label;
          cost = tr.t_cost;
          apply =
            (fun () ->
              let ok = apply tr.t_target in
              if ok then counters.(i) <- 0;
              ok);
        }
    in
    (* First transition whose source is the current configuration and
       whose condition matches the metric: its counter advances, every
       other counter resets (a non-matching sample breaks a streak). *)
    let consult m cur =
      let enabled = ref (-1) in
      for i = 0 to Array.length ts - 1 do
        let tr = ts.(i) in
        if !enabled < 0 && tr.t_from = cur && matches tr.t_cond m then enabled := i
        else counters.(i) <- 0
      done;
      if !enabled < 0 then No_change
      else begin
        let i = !enabled in
        let tr = ts.(i) in
        counters.(i) <- counters.(i) + 1;
        if counters.(i) >= tr.t_repeats then fire i tr else No_change
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
        let clamped = Int.max g.g_clamp_lo (Int.min g.g_clamp_hi raw) in
        if Guard.note state ~pathological:(clamped <> raw) then
          Reconfigure
            {
              label = g.g_fallback_label;
              cost = g.g_fallback_cost;
              apply =
                (fun () ->
                  let ok = apply g.g_fallback in
                  if not ok then Guard.fallback_failed state;
                  ok);
            }
        else consult clamped cur
end
