module Policy = Adaptive_core.Policy
module Spec = Policy.Spec

type finding = {
  f_kind : string;
  f_spec : string;
  f_configs : string list;
  f_region : string option;
  f_message : string;
}

(* ---- interval helpers over Spec.cond ---- *)

let isect (a : Spec.cond) (b : Spec.cond) : Spec.cond option =
  let lo = max a.Spec.lo b.Spec.lo in
  let hi =
    match (a.Spec.hi, b.Spec.hi) with
    | None, h | h, None -> h
    | Some x, Some y -> Some (min x y)
  in
  match hi with Some h when h < lo -> None | _ -> Some { Spec.lo; hi }

let entirely_below (a : Spec.cond) (b : Spec.cond) =
  match a.Spec.hi with Some h -> h < b.Spec.lo | None -> false

(* ---- the metric-region abstraction ----

   Thresholds cut the metric axis into finitely many regions within
   which every transition condition keeps one truth value, so
   one representative per region decides everything. With a guard the
   axis is the clamp interval: a sample outside it feeds only the
   guard, and [inputs] adds one such sample. *)

type region = { r_lo : int; r_hi : int option }

let region_desc r =
  match r.r_hi with
  | Some h when h = r.r_lo -> Printf.sprintf "= %d" r.r_lo
  | Some h -> Printf.sprintf "in [%d, %d]" r.r_lo h
  | None -> Printf.sprintf ">= %d" r.r_lo

let regions (spec : Spec.t) =
  let conds = List.map (fun t -> t.Spec.t_cond) spec.Spec.s_transitions in
  let domain_lo, domain_hi =
    match spec.Spec.s_guard with
    | Some g -> (g.Spec.g_clamp_lo, Some g.Spec.g_clamp_hi)
    | None -> (List.fold_left (fun acc c -> min acc c.Spec.lo) 0 conds, None)
  in
  let bps =
    List.concat_map
      (fun (c : Spec.cond) ->
        (c.Spec.lo :: (match c.Spec.hi with Some h -> [ h + 1 ] | None -> [])))
      conds
  in
  let bps =
    List.sort_uniq compare
      (List.filter
         (fun b ->
           b > domain_lo
           && match domain_hi with Some h -> b <= h | None -> true)
         bps)
  in
  let rec build lo = function
    | [] -> [ { r_lo = lo; r_hi = domain_hi } ]
    | b :: rest -> { r_lo = lo; r_hi = Some (b - 1) } :: build b rest
  in
  build domain_lo bps

let config_values (spec : Spec.t) =
  List.map (fun c -> c.Spec.c_value) spec.Spec.s_configs

(* ---- the explored product ----

   A node is the attribute's value and the policy's own step state
   ([Spec.step]'s). The inputs are one representative per region plus,
   for a guarded spec, one sample outside the clamp: every such sample
   acts alike, feeding only the guard. *)

type input = { metric : int; desc : string }

let inputs (spec : Spec.t) =
  List.map (fun r -> { metric = r.r_lo; desc = region_desc r }) (regions spec)
  @
  match spec.Spec.s_guard with
  | Some g ->
    let desc = Printf.sprintf "outside [%d, %d]" g.Spec.g_clamp_lo g.Spec.g_clamp_hi in
    [ { metric = g.Spec.g_clamp_hi + 1; desc } ]
  | None -> []

(* Breadth-first closure of [starts] under [next], whose edges carry a
   label: the nodes in discovery order, and each one's edges as
   (label, node number). *)
let closure next starts =
  let ids = Hashtbl.create 64 and nodes = ref [] and queue = Queue.create () in
  let id v =
    match Hashtbl.find_opt ids v with
    | Some i -> i
    | None ->
      Hashtbl.add ids v (Hashtbl.length ids);
      nodes := v :: !nodes;
      Queue.add v queue;
      Hashtbl.length ids - 1
  in
  List.iter (fun v -> ignore (id v)) starts;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    out := List.map (fun (l, w) -> (l, id w)) (next (Queue.pop queue)) :: !out
  done;
  (Array.of_list (List.rev !nodes), Array.of_list (List.rev !out))

(* The policy's graph: every input from every node reached from the
   initial one, each fire with both outcomes, apply succeeded or
   failed. It holds every behaviour the running policy can show under
   any sequence of samples and apply results. A succeeded fire's edge
   is labelled with its configuration and transition index ([None]
   for the guard's fallback). *)
let explore (spec : Spec.t) =
  let xs = inputs spec in
  closure
    (fun (cur, st) ->
      List.concat_map
        (fun x ->
          match Spec.step spec st ~metric:x.metric ~cur with
          | st', Spec.Stay -> [ (None, (cur, st')) ]
          | st', Spec.Fire f ->
            [ (Some (cur, f.transition), (f.target, st')); (None, (cur, f.on_fail)) ])
        xs)
    [ (spec.Spec.s_initial, Spec.fresh) ]

let reached (nodes, _) = List.sort_uniq compare (List.map fst (Array.to_list nodes))
let fires (_, out) = List.concat_map (List.filter_map fst) (Array.to_list out)

(* ---- cycles under held inputs ----

   The moves of a graph are labelled by player, [0] to [p - 1]. From
   every node [u] with a configuration-changing move of player 0, the
   shortest walk back to [u] that takes a configuration-changing move
   of each player in turn, as the configurations it visits: one
   period, rotated to start at the least value. *)
let cycles p (nodes, out) =
  let config v = fst nodes.(v) in
  let changes who k v w = who = k && k < p && config w <> config v in
  (* breadth-first over (node, moves taken so far), numbered [v * (p + 1) + k] *)
  let walk u =
    let prev = Array.make (Array.length nodes * (p + 1)) (-1) and queue = Queue.create () in
    let start = u * (p + 1) and goal = (u * (p + 1)) + p in
    Queue.add start queue;
    while not (Queue.is_empty queue || prev.(goal) >= 0) do
      let s = Queue.pop queue in
      let v = s / (p + 1) and k = s mod (p + 1) in
      List.iter
        (fun (who, w) ->
          let s' = (w * (p + 1)) + if changes who k v w then k + 1 else k in
          if prev.(s') < 0 then begin
            prev.(s') <- s;
            Queue.add s' queue
          end)
        out.(v)
    done;
    let rec back s acc = if s = start then acc else back prev.(s) ((s / (p + 1)) :: acc) in
    if prev.(goal) >= 0 then Some (u :: back goal []) else None
  in
  let period walk =
    let rec squash = function
      | a :: (b :: _ as rest) when a = b -> squash rest
      | a :: rest -> a :: squash rest
      | [] -> []
    in
    let l = Array.of_list (squash (List.map config walk)) in
    let len = Array.length l - 1 in
    let repeats k = List.for_all (fun i -> l.(i) = l.(i mod k)) (List.init len Fun.id) in
    let rec shortest k = if len mod k = 0 && repeats k then k else shortest (k + 1) in
    let p = shortest 1 in
    let m = ref 0 in
    for i = 1 to p - 1 do
      if l.(i) < l.(!m) then m := i
    done;
    List.init p (fun i -> l.((i + !m) mod p))
  in
  List.filter_map
    (fun u ->
      if List.exists (fun (who, w) -> changes who 0 u w) out.(u) then Option.map period (walk u)
      else None)
    (List.init (Array.length nodes) Fun.id)

(* The cycles of [specs], each held at one of its inputs (every
   combination, first spec outermost), every apply succeeding and any
   spec sampling next, from [starts]: adaptation that goes on forever
   while no metric moves. Each cycle once, with the inputs it was first
   found under. *)
let fights specs starts =
  let combos =
    List.fold_right
      (fun spec acc -> List.concat_map (fun x -> List.map (fun xs -> x :: xs) acc) (inputs spec))
      specs [ [] ]
  in
  List.fold_left
    (fun found xs ->
      let next (cur, sts) =
        List.mapi
          (fun k ((spec, x), st) ->
            let cur', st' =
              match Spec.step spec st ~metric:x.metric ~cur with
              | st', Spec.Stay -> (cur, st')
              | st', Spec.Fire f -> (f.target, st')
            in
            (k, (cur', List.mapi (fun j s -> if j = k then st' else s) sts)))
          (List.combine (List.combine specs xs) sts)
      in
      List.fold_left
        (fun found c -> if List.mem_assoc c found then found else found @ [ (c, xs) ])
        found
        (cycles (List.length specs) (closure next starts)))
    [] combos

(* ---- thrash cycles ----

   A configuration cycle under one held input, every apply succeeding,
   from any node of the policy's graph: the policy adapts forever while
   the workload does not change at all. Counters and guard are part of
   the node, so the cycle is the running policy's, not a projection of
   it. *)
let thrash_cycles (spec : Spec.t) (nodes, _) =
  List.map
    (fun (cycle, xs) ->
      let x = List.hd xs and names = List.map (Spec.config_name spec) cycle in
      {
        f_kind = "thrash-cycle";
        f_spec = spec.Spec.s_name;
        f_configs = names;
        f_region = Some x.desc;
        f_message =
          Printf.sprintf "adapts forever while %s stays %s: %s -> %s" spec.Spec.s_metric
            x.desc
            (String.concat " -> " names)
            (List.hd names);
      })
    (fights [ spec ] (List.map (fun (cur, st) -> (cur, [ st ])) (Array.to_list nodes)))

(* ---- dead configurations: never the attribute's value in the graph ---- *)
let dead_configs (spec : Spec.t) graph =
  let live = reached graph in
  List.filter_map
    (fun v ->
      if List.mem v live then None
      else
        Some
          {
            f_kind = "dead-config";
            f_spec = spec.Spec.s_name;
            f_configs = [ Spec.config_name spec v ];
            f_region = None;
            f_message =
              Printf.sprintf
                "configuration %s is unreachable from the initial configuration %s"
                (Spec.config_name spec v)
                (Spec.config_name spec spec.Spec.s_initial);
          })
    (config_values spec)

(* ---- transitions that can never fire ----

   A transition out of a reached configuration whose fire edge the
   graph never takes is dead: a higher-priority transition claims its
   whole enabled region (shadowing, a threshold overlap), or, when it
   carries hysteresis, its counter can never even advance. A condition
   entirely outside the clamp is a guardrail gap instead, and a
   transition out of a dead configuration is that configuration's
   finding. *)
let dead_transitions (spec : Spec.t) graph =
  let live = reached graph and fired = fires graph in
  let clamp =
    match spec.Spec.s_guard with
    | Some g -> Some { Spec.lo = g.Spec.g_clamp_lo; hi = Some g.Spec.g_clamp_hi }
    | None -> None
  in
  List.concat
    (List.mapi
       (fun i t ->
         let clamped_out =
           match clamp with
           | Some c -> isect t.Spec.t_cond c = None
           | None -> false
         in
         if
           clamped_out
           || (not (List.mem t.Spec.t_from live))
           || List.mem (t.Spec.t_from, Some i) fired
         then []
         else
           let hysteretic = t.Spec.t_repeats > 1 in
           [
             {
               f_kind = (if hysteretic then "hysteresis-dead" else "threshold-overlap");
               f_spec = spec.Spec.s_name;
               f_configs =
                 [
                   Spec.config_name spec t.Spec.t_from;
                   Spec.config_name spec t.Spec.t_target;
                 ];
               f_region = None;
               f_message =
                 Printf.sprintf "transition %s (%s -> %s) can never fire: %s"
                   t.Spec.t_label
                   (Spec.config_name spec t.Spec.t_from)
                   (Spec.config_name spec t.Spec.t_target)
                   (if hysteretic then
                      "every sample that would advance its hysteresis counter is \
                       claimed by a higher-priority transition"
                    else "a higher-priority transition shadows its whole region");
             };
           ])
       spec.Spec.s_transitions)

(* ---- inverted / overlapping up-down thresholds ----

   Overlap is judged per source configuration: an up- and a
   down-transition out of the same configuration enabled by the same
   metric value means one sample asks for both directions (priority
   picks one, but the pair thrashes or surprises). Polarity is a
   global declaration, so inversion is judged across configurations:
   under [Up_at_low] every up condition must sit below every down
   condition (and symmetrically for [Up_at_high]) — a pair on the
   wrong sides means the thresholds are plugged in backwards. *)
let threshold_faults (spec : Spec.t) =
  let fault kind u d reason =
    {
      f_kind = kind;
      f_spec = spec.Spec.s_name;
      f_configs =
        [
          Spec.config_name spec u.Spec.t_from;
          Spec.config_name spec u.Spec.t_target;
          Spec.config_name spec d.Spec.t_from;
          Spec.config_name spec d.Spec.t_target;
        ];
      f_region = None;
      f_message =
        Printf.sprintf "%s (from %s) vs %s (from %s): %s" u.Spec.t_label
          (Spec.config_name spec u.Spec.t_from)
          d.Spec.t_label
          (Spec.config_name spec d.Spec.t_from)
          reason;
    }
  in
  let ups = List.filter (fun t -> t.Spec.t_target > t.Spec.t_from) spec.Spec.s_transitions in
  let downs = List.filter (fun t -> t.Spec.t_target < t.Spec.t_from) spec.Spec.s_transitions in
  List.concat_map
    (fun u ->
      List.concat_map
        (fun d ->
          if
            u.Spec.t_from = d.Spec.t_from
            && isect u.Spec.t_cond d.Spec.t_cond <> None
          then
            [
              fault "threshold-overlap" u d
                "their conditions overlap, so one metric value asks for both \
                 directions";
            ]
          else
            match spec.Spec.s_monotone with
            | Spec.Up_at_low when entirely_below d.Spec.t_cond u.Spec.t_cond ->
              [
                fault "threshold-inverted" u d
                  "the spec declares up-at-low-metric, but the up condition sits \
                   above the down condition";
              ]
            | Spec.Up_at_high when entirely_below u.Spec.t_cond d.Spec.t_cond ->
              [
                fault "threshold-inverted" u d
                  "the spec declares up-at-high-metric, but the up condition sits \
                   below the down condition";
              ]
            | _ -> [])
        downs)
    ups

(* ---- guardrail gaps ---- *)
let guard_gaps (spec : Spec.t) graph =
  match spec.Spec.s_guard with
  | None -> []
  | Some g ->
    let clamp = { Spec.lo = g.Spec.g_clamp_lo; hi = Some g.Spec.g_clamp_hi } in
    let gap configs msg =
      {
        f_kind = "guardrail-gap";
        f_spec = spec.Spec.s_name;
        f_configs = configs;
        f_region = None;
        f_message = msg;
      }
    in
    let dead_under_clamp =
      List.filter_map
        (fun t ->
          if isect t.Spec.t_cond clamp = None then
            Some
              (gap
                 [
                   Spec.config_name spec t.Spec.t_from;
                   Spec.config_name spec t.Spec.t_target;
                 ]
                 (Printf.sprintf
                    "transition %s (%s -> %s) can never fire: its condition lies \
                     entirely outside the metric clamp [%d, %d]"
                    t.Spec.t_label
                    (Spec.config_name spec t.Spec.t_from)
                    (Spec.config_name spec t.Spec.t_target)
                    g.Spec.g_clamp_lo g.Spec.g_clamp_hi))
          else None)
        spec.Spec.s_transitions
    in
    (* the fallback is a sink when no transition fires out of it *)
    let fallback_sink =
      let v = g.Spec.g_fallback in
      if List.exists (fun (cur, tr) -> cur = v && tr <> None) (fires graph) then []
      else
        [
          gap
            [ Spec.config_name spec v ]
            (Printf.sprintf
               "the guardrail fallback configuration %s is a sink: no transition \
                leaves it, so one fallback ends adaptation for good"
               (Spec.config_name spec v));
        ]
    in
    dead_under_clamp @ fallback_sink

(* ---- implementation-ladder obligations ----

   A spec with [s_kind = "lock-impl"] drives which {e implementation} a
   lock runs, and every transition is a full quiescence-protocol swap
   (freeze, kick, drain, commit). Two obligations on top of the generic
   checks. First, the guardrail's metric clamp must not cut off an
   implementation the unclamped ladder could reach: the configuration
   stays declared but no observable metric can ever earn it (distinct
   from [dead-config], which judges only the clamped axis and cannot
   say the clamp itself is what severed the path). Second, every swap
   transition needs real hysteresis ([t_repeats >= 2]): a swap firing
   on a single sample opens a freeze-kick-drain window — and migrates
   every waiter — on any metric blip. *)
let impl_ladder_faults (spec : Spec.t) graph =
  if spec.Spec.s_kind <> "lock-impl" then []
  else begin
    let clamped_out =
      match spec.Spec.s_guard with
      | None -> []
      | Some g ->
        let unclamped = reached (explore { spec with Spec.s_guard = None }) in
        let clamped = reached graph in
        List.filter_map
          (fun v ->
            if List.mem v unclamped && not (List.mem v clamped) then
              Some
                {
                  f_kind = "impl-clamped-out";
                  f_spec = spec.Spec.s_name;
                  f_configs = [ Spec.config_name spec v ];
                  f_region = None;
                  f_message =
                    Printf.sprintf
                      "implementation %s (id %d) is reachable by the unclamped \
                       ladder but the guardrail clamp [%d, %d] cuts off every \
                       path to it: the lock can never earn that implementation"
                      (Spec.config_name spec v) v g.Spec.g_clamp_lo
                      g.Spec.g_clamp_hi;
                }
            else None)
          (config_values spec)
    in
    let no_hysteresis =
      List.filter_map
        (fun t ->
          if t.Spec.t_repeats < 2 then
            Some
              {
                f_kind = "swap-no-hysteresis";
                f_spec = spec.Spec.s_name;
                f_configs =
                  [
                    Spec.config_name spec t.Spec.t_from;
                    Spec.config_name spec t.Spec.t_target;
                  ];
                f_region = None;
                f_message =
                  Printf.sprintf
                    "swap transition %s (%s -> %s) fires after a single sample \
                     (t_repeats = %d): an implementation swap runs a \
                     freeze-kick-drain window and needs hysteresis (>= 2)"
                    t.Spec.t_label
                    (Spec.config_name spec t.Spec.t_from)
                    (Spec.config_name spec t.Spec.t_target)
                    t.Spec.t_repeats;
              }
          else None)
        spec.Spec.s_transitions
    in
    clamped_out @ no_hysteresis
  end

let check (spec : Spec.t) =
  match Spec.validate spec with
  | [] ->
    let graph = explore spec in
    thrash_cycles spec graph @ dead_configs spec graph @ dead_transitions spec graph
    @ threshold_faults spec @ guard_gaps spec graph @ impl_ladder_faults spec graph
  | errs ->
    List.map
      (fun e ->
        {
          f_kind = "malformed-spec";
          f_spec = spec.Spec.s_name;
          f_configs = [];
          f_region = None;
          f_message = e;
        })
      errs

(* ---- cross-object conflicts ----

   Two specs naming the same attribute co-write one configuration
   value. Hold each spec's metric at one of its inputs (the metrics are
   independent, so any pair can persist) and explore the product of the
   two steps over the shared value, from every declared value with
   both policies fresh. A cycle through configuration-changing moves of
   both is a conflict: each policy is stable alone, but together they
   pass the attribute back and forth while neither metric moves. *)
let conflicts (a : Spec.t) (b : Spec.t) =
  if a.Spec.s_attribute <> b.Spec.s_attribute then []
  else if Spec.validate a <> [] || Spec.validate b <> [] then []
  else begin
    let values = List.sort_uniq compare (config_values a @ config_values b) in
    let cname v =
      match Spec.find_config a v with
      | Some c -> c.Spec.c_name
      | None -> Spec.config_name b v
    in
    List.map
      (fun (cycle, xs) ->
        let names = List.map cname cycle in
        let da = (List.nth xs 0).desc and db = (List.nth xs 1).desc in
        {
          f_kind = "cross-object-conflict";
          f_spec = a.Spec.s_name ^ " + " ^ b.Spec.s_name;
          f_configs = names;
          f_region = Some (Printf.sprintf "%s %s, %s %s" a.Spec.s_metric da b.Spec.s_metric db);
          f_message =
            Printf.sprintf
              "both drive attribute %s: while %s stays %s and %s stays %s the \
               attribute cycles %s -> %s"
              a.Spec.s_attribute a.Spec.s_metric da b.Spec.s_metric db
              (String.concat " -> " names)
              (List.hd names);
        })
      (fights [ a; b ] (List.map (fun v -> (v, [ Spec.fresh; Spec.fresh ])) values))
  end

(* ---- the shipped catalogue and batch runs ---- *)

let shipped () =
  [
    Locks.Spin_budget.policy_spec ();
    Locks.Lock_core.impl_ladder_spec ();
    Locks.Rw_lock.policy_spec ();
    Cthreads.Adaptive_barrier.policy_spec ();
    Cthreads.Adaptive_condition.policy_spec ();
    Cthreads.Adaptive_semaphore.policy_spec ();
  ]

type spec_report = {
  sr_name : string;
  sr_kind : string;
  sr_attribute : string;
  sr_metric : string;
  sr_configs : int;
  sr_transitions : int;
  sr_findings : finding list;
}

let report (spec : Spec.t) =
  {
    sr_name = spec.Spec.s_name;
    sr_kind = spec.Spec.s_kind;
    sr_attribute = spec.Spec.s_attribute;
    sr_metric = spec.Spec.s_metric;
    sr_configs = List.length spec.Spec.s_configs;
    sr_transitions = List.length spec.Spec.s_transitions;
    sr_findings = check spec;
  }

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

let run ?domains specs =
  let reports = Engine.Runner.map ?domains report specs in
  let cross =
    List.concat (Engine.Runner.map ?domains (fun (a, b) -> conflicts a b) (pairs specs))
  in
  (reports, cross)

type fixture_outcome = {
  x_name : string;
  x_expected : string list;
  x_found : string list;
  x_missing : string list;
  x_findings : finding list;
}

let check_fixture ~name ~expect specs =
  let singles = List.concat_map check specs in
  let cross = List.concat_map (fun (a, b) -> conflicts a b) (pairs specs) in
  let findings = singles @ cross in
  let kinds = List.sort_uniq compare (List.map (fun f -> f.f_kind) findings) in
  {
    x_name = name;
    x_expected = expect;
    x_found = kinds;
    x_missing = List.filter (fun k -> not (List.mem k kinds)) expect;
    x_findings = findings;
  }

(* ---- deterministic JSON (hand-rolled, like Analysis_suite) ---- *)

open Engine.Text

let finding_json f =
  Printf.sprintf
    "{ \"kind\": \"%s\", \"spec\": \"%s\", \"configs\": %s, \"region\": %s, \
     \"message\": \"%s\" }"
    (json_escape f.f_kind) (json_escape f.f_spec)
    (json_string_list f.f_configs)
    (match f.f_region with
    | None -> "null"
    | Some r -> Printf.sprintf "\"%s\"" (json_escape r))
    (json_escape f.f_message)

let findings_json fs =
  "[" ^ String.concat ", " (List.map finding_json fs) ^ "]"

let spec_report_json r =
  String.concat ",\n"
    [
      Printf.sprintf "      \"spec\": \"%s\"" (json_escape r.sr_name);
      Printf.sprintf "      \"kind\": \"%s\"" (json_escape r.sr_kind);
      Printf.sprintf "      \"attribute\": \"%s\"" (json_escape r.sr_attribute);
      Printf.sprintf "      \"metric\": \"%s\"" (json_escape r.sr_metric);
      Printf.sprintf "      \"configs\": %d" r.sr_configs;
      Printf.sprintf "      \"transitions\": %d" r.sr_transitions;
      Printf.sprintf "      \"findings\": %s" (findings_json r.sr_findings);
    ]

let fixture_json x =
  String.concat ",\n"
    [
      Printf.sprintf "      \"fixture\": \"%s\"" (json_escape x.x_name);
      Printf.sprintf "      \"expected\": %s" (json_string_list x.x_expected);
      Printf.sprintf "      \"found\": %s" (json_string_list x.x_found);
      Printf.sprintf "      \"missing\": %s" (json_string_list x.x_missing);
      Printf.sprintf "      \"findings\": %s" (findings_json x.x_findings);
    ]

let clean (reports, cross) =
  cross = [] && List.for_all (fun r -> r.sr_findings = []) reports

let to_json ~shipped:(reports, cross) ~fixtures =
  let wrap body = "    {\n" ^ body ^ "\n    }" in
  String.concat "\n"
    [
      "{";
      "  \"shipped\": [";
      String.concat ",\n" (List.map (fun r -> wrap (spec_report_json r)) reports);
      "  ],";
      Printf.sprintf "  \"conflicts\": %s," (findings_json cross);
      "  \"fixtures\": [";
      String.concat ",\n" (List.map (fun x -> wrap (fixture_json x)) fixtures);
      "  ],";
      Printf.sprintf "  \"clean\": %b,"
        (clean (reports, cross));
      Printf.sprintf "  \"fixtures_satisfied\": %b"
        (List.for_all (fun x -> x.x_missing = []) fixtures);
      "}";
    ]
