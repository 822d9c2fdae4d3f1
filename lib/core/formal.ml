type config = { gamma : string }

let config gamma = { gamma }
let config_equal a b = a.gamma = b.gamma
let pp_config ppf c = Format.fprintf ppf "%s" c.gamma

type transition = { at : int; from_ : config; to_ : config; cost : Cost.t }

type space = { members : config list; edges : (string * string) list }

let space ~configs ~edges =
  let rec dup = function
    | [] -> None
    | c :: rest -> if List.exists (config_equal c) rest then Some c else dup rest
  in
  (match dup configs with
  | Some c -> invalid_arg (Format.asprintf "Formal.space: duplicate %a" pp_config c)
  | None -> ());
  { members = configs; edges }

let mem s candidate = List.exists (config_equal candidate) s.members

let edge_allowed s ~from_ ~to_ =
  mem s from_ && mem s to_ && List.mem (from_.gamma, to_.gamma) s.edges

let validate s ~initial transitions =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  if not (mem s initial) then fail "initial configuration %a not in space" pp_config initial
  else begin
    let rec walk current last_time = function
      | [] -> Ok ()
      | tr :: rest ->
        if tr.at < last_time then fail "transition at %d out of time order" tr.at
        else if not (config_equal tr.from_ current) then
          fail "transition at %d departs from %a but object is in %a" tr.at pp_config
            tr.from_ pp_config current
        else if not (mem s tr.to_) then
          fail "transition at %d reaches %a, outside the space" tr.at pp_config tr.to_
        else if not (edge_allowed s ~from_:tr.from_ ~to_:tr.to_) then
          fail "transition at %d uses forbidden edge %s -> %s" tr.at tr.from_.gamma
            tr.to_.gamma
        else walk tr.to_ tr.at rest
    in
    walk initial min_int transitions
  end

let total_cost transitions =
  List.fold_left (fun acc tr -> Cost.( + ) acc tr.cost) Cost.zero transitions

(* -- replaying a recorded adaptation log against the spec it ran: each
   label must resolve to a declared Ψ out of the current configuration,
   in time order. -- *)

let check_log spec log =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  (* First match wins, the spec's priority order; the guardrail
     fallback is a declared Ψ from anywhere. *)
  let target current label =
    match
      List.find_opt
        (fun tr -> tr.Policy.Spec.t_from = current && tr.Policy.Spec.t_label = label)
        spec.Policy.Spec.s_transitions
    with
    | Some tr -> Some tr.Policy.Spec.t_target
    | None -> (
      match spec.Policy.Spec.s_guard with
      | Some g when g.Policy.Spec.g_fallback_label = label -> Some g.Policy.Spec.g_fallback
      | _ -> None)
  in
  let rec resolve current = function
    | [] -> Ok ()
    | (at, label) :: rest -> (
      match target current label with
      | Some next -> resolve next rest
      | None ->
        fail "log entry \"%s\" at t=%d: no declared transition from %s" label at
          (Policy.Spec.config_name spec current))
  in
  let rec ordered last_time = function
    | [] -> Ok ()
    | (at, _) :: rest ->
      if at < last_time then fail "transition at %d out of time order" at else ordered at rest
  in
  Result.bind (resolve spec.Policy.Spec.s_initial log) (fun () -> ordered min_int log)
