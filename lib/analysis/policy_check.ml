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
   axis is the clamp interval — clamping maps every raw metric into
   it, so clamped-out values are unobservable by the transitions. *)

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

(* First transition enabled from configuration [v] at metric [m] — the
   one [Spec.compile] consults — with its priority index. *)
let first_match (spec : Spec.t) v m =
  let rec go i = function
    | [] -> None
    | t :: rest ->
      if t.Spec.t_from = v && Spec.matches t.Spec.t_cond m then Some (i, t)
      else go (i + 1) rest
  in
  go 0 spec.Spec.s_transitions

(* The configurations reachable from the initial one over the regions
   [rs]: along first-match edges, plus the guard's fallback edge, which
   can fire from anywhere. *)
let reached (spec : Spec.t) rs =
  let next v =
    List.filter_map
      (fun r -> Option.map (fun (_, t) -> t.Spec.t_target) (first_match spec v r.r_lo))
      rs
    @ match spec.Spec.s_guard with Some g -> [ g.Spec.g_fallback ] | None -> []
  in
  Spec.reachable ~next spec.Spec.s_initial

let rotate_min cycle =
  let mn = List.fold_left min (List.hd cycle) cycle in
  let rec rot l = if List.hd l = mn then l else rot (List.tl l @ [ List.hd l ]) in
  rot cycle

(* ---- thrash cycles ----

   Within one region each configuration has at most one enabled
   first-match transition, so the per-region step relation is a
   functional graph; any cycle in it is an infinite adaptation loop the
   policy runs without the metric moving at all (hysteresis only slows
   it: counters reset on arrival, then refill while the metric sits
   still). *)
let thrash_cycles (spec : Spec.t) =
  let values = config_values spec in
  let seen = ref [] in
  List.concat_map
    (fun r ->
      let next v =
        Option.map (fun (_, t) -> t.Spec.t_target) (first_match spec v r.r_lo)
      in
      let cycles = ref [] in
      List.iter
        (fun start ->
          let rec walk path v =
            match next v with
            | None -> ()
            | Some w ->
              if List.mem w (v :: path) then begin
                let seg =
                  let rec up acc = function
                    | [] -> acc
                    | x :: rest ->
                      if x = w then x :: acc else up (x :: acc) rest
                  in
                  up [] (v :: path)
                in
                let canon = rotate_min seg in
                if not (List.mem canon (!seen @ !cycles)) then
                  cycles := !cycles @ [ canon ]
              end
              else walk (v :: path) w
          in
          walk [] start)
        values;
      seen := !seen @ !cycles;
      List.map
        (fun cycle ->
          let names = List.map (Spec.config_name spec) cycle in
          {
            f_kind = "thrash-cycle";
            f_spec = spec.Spec.s_name;
            f_configs = names;
            f_region = Some (region_desc r);
            f_message =
              Printf.sprintf
                "adapts forever while %s stays %s: %s -> %s" spec.Spec.s_metric
                (region_desc r)
                (String.concat " -> " names)
                (List.hd names);
          })
        !cycles)
    (regions spec)

(* ---- dead configurations ----

   Configurations outside the reached set over every region. *)
let dead_configs (spec : Spec.t) =
  let live = reached spec (regions spec) in
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

   A transition that is never the first match in any region is dead:
   either a higher-priority transition covers its whole enabled region
   (shadowing — a threshold overlap), or, when it carries hysteresis,
   its counter can never even advance. *)
let dead_transitions (spec : Spec.t) =
  let rs = regions spec in
  let ts = spec.Spec.s_transitions in
  let live = Array.make (List.length ts) false in
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          match first_match spec v r.r_lo with
          | Some (i, _) -> live.(i) <- true
          | None -> ())
        (config_values spec))
    rs;
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
         (* a condition entirely outside the clamp is a guardrail gap,
            reported by [guard_gaps] instead *)
         if live.(i) || clamped_out then []
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
       ts)

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
let guard_gaps (spec : Spec.t) =
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
    let fallback_sink =
      let v = g.Spec.g_fallback in
      let can_leave =
        List.exists
          (fun r ->
            match first_match spec v r.r_lo with
            | Some (_, t) -> t.Spec.t_target <> v
            | None -> false)
          (regions spec)
      in
      if can_leave then []
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
let impl_ladder_faults (spec : Spec.t) =
  if spec.Spec.s_kind <> "lock-impl" then []
  else begin
    let clamped_out =
      match spec.Spec.s_guard with
      | None -> []
      | Some g ->
        let unclamped = reached spec (regions { spec with Spec.s_guard = None }) in
        let clamped = reached spec (regions spec) in
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
    thrash_cycles spec @ dead_configs spec @ dead_transitions spec
    @ threshold_faults spec @ guard_gaps spec @ impl_ladder_faults spec
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
   value. Freeze each spec's metric in one of its regions (the metrics
   are independent, so any pair of regions can persist); the union of
   the two per-region functional graphs then has at most two out-edges
   per configuration. A cycle using edges of both specs is a conflict:
   each policy is stable alone, but together they pass the attribute
   back and forth while neither metric moves. Single-spec cycles are
   that spec's own thrash, reported by [check]. *)
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
    let found = ref [] in
    List.iter
      (fun ra ->
        List.iter
          (fun rb ->
            let next_a v =
              Option.map (fun (_, t) -> t.Spec.t_target) (first_match a v ra.r_lo)
            in
            let next_b v =
              Option.map (fun (_, t) -> t.Spec.t_target) (first_match b v rb.r_lo)
            in
            let record seg =
              let nodes = List.map fst seg in
              let tags = List.map snd seg in
              if List.mem `A tags && List.mem `B tags then begin
                let canon = rotate_min nodes in
                if not (List.exists (fun (c, _, _) -> c = canon) !found) then
                  found := !found @ [ (canon, region_desc ra, region_desc rb) ]
              end
            in
            let rec explore path v =
              let step tag w =
                if List.exists (fun (x, _) -> x = w) ((v, tag) :: path) then begin
                  let seg =
                    let rec up acc = function
                      | [] -> acc
                      | (x, tg) :: rest ->
                        if x = w then (x, tg) :: acc else up ((x, tg) :: acc) rest
                    in
                    up [] ((v, tag) :: path)
                  in
                  record seg
                end
                else explore ((v, tag) :: path) w
              in
              (match next_a v with Some w -> step `A w | None -> ());
              match next_b v with Some w -> step `B w | None -> ()
            in
            List.iter (fun v -> explore [] v) values)
          (regions b))
      (regions a);
    List.map
      (fun (cycle, da, db) ->
        let names = List.map cname cycle in
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
      !found
  end

(* ---- the shipped catalogue and batch runs ---- *)

let shipped () =
  [
    Locks.Adaptive_lock.policy_spec ();
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
