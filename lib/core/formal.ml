type config = { gamma : string }

let config gamma = { gamma }
let config_equal a b = a.gamma = b.gamma
let pp_config ppf c = Format.fprintf ppf "%s" c.gamma

type transition = { at : int; from_ : config; to_ : config; cost : Cost.t }

type space = { members : config list; edges : (string * string) list option }

let space ~configs ?edges () =
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
  match s.edges with
  | None -> mem s from_ && mem s to_
  | Some edges ->
    mem s from_ && mem s to_ && List.mem (from_.gamma, to_.gamma) edges

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

(* -- bridging Policy.Spec to the paper's formalism: a declared policy
   spec induces a configuration space (each configuration a gamma, no
   attributes), and a recorded adaptation log replays as a Ψ chain
   through it. -- *)

let spec_config_name spec v =
  match Policy.Spec.find_config spec v with
  | Some c -> c.Policy.Spec.c_name
  | None -> string_of_int v

(* The label a transition writes into the log: its own, or the target
   configuration's name when it declares none (Policy.Spec convention). *)
let spec_transition_label spec tr =
  if tr.Policy.Spec.t_label <> "" then tr.Policy.Spec.t_label
  else spec_config_name spec tr.Policy.Spec.t_target

let space_of_spec spec =
  let name v = spec_config_name spec v in
  let configs =
    List.map (fun c -> config c.Policy.Spec.c_name) spec.Policy.Spec.s_configs
  in
  let declared =
    List.map
      (fun tr -> (name tr.Policy.Spec.t_from, name tr.Policy.Spec.t_target))
      spec.Policy.Spec.s_transitions
  in
  (* The guardrail fallback is a declared Ψ from anywhere. *)
  let fallback =
    match spec.Policy.Spec.s_guard with
    | None -> []
    | Some g ->
      List.map
        (fun c -> (c.Policy.Spec.c_name, name g.Policy.Spec.g_fallback))
        spec.Policy.Spec.s_configs
  in
  space ~configs ~edges:(declared @ fallback) ()

let check_log spec log =
  let name v = spec_config_name spec v in
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  (* Resolve each logged label into the declared transition it claims
     to be (first match wins, the spec's priority order), building the
     Ψ chain [validate] then checks against the space. *)
  let rec resolve current acc = function
    | [] -> Ok (List.rev acc)
    | (at, label) :: rest -> (
      match
        List.find_opt
          (fun tr ->
            tr.Policy.Spec.t_from = current && spec_transition_label spec tr = label)
          spec.Policy.Spec.s_transitions
      with
      | Some tr ->
        let step =
          {
            at;
            from_ = config (name current);
            to_ = config (name tr.Policy.Spec.t_target);
            cost = tr.Policy.Spec.t_cost;
          }
        in
        resolve tr.Policy.Spec.t_target (step :: acc) rest
      | None -> (
        match spec.Policy.Spec.s_guard with
        | Some g when g.Policy.Spec.g_fallback_label = label ->
          let step =
            {
              at;
              from_ = config (name current);
              to_ = config (name g.Policy.Spec.g_fallback);
              cost = g.Policy.Spec.g_fallback_cost;
            }
          in
          resolve g.Policy.Spec.g_fallback (step :: acc) rest
        | _ ->
          fail "log entry \"%s\" at t=%d: no declared transition from %s" label at
            (name current)))
  in
  match resolve spec.Policy.Spec.s_initial [] log with
  | Error _ as e -> e
  | Ok chain ->
    validate (space_of_spec spec)
      ~initial:(config (name spec.Policy.Spec.s_initial))
      chain
