type 'obs t = {
  obj_name : string;
  obj_kind : string;
  sensor : 'obs Sensor.t;
  policy : 'obs Policy.t;
  scratch : Butterfly.Memory.addr;
  mutable policy_run_count : int;
  mutable adaptation_count : int;
  mutable adaptation_log : (int * string) list;  (* newest first *)
  mutable cost_sum : Cost.t;
}

let decide t obs =
  t.policy_run_count <- t.policy_run_count + 1;
  match t.policy obs with
  | Policy.No_change -> false
  | Policy.Reconfigure { label; cost; apply } ->
    (* The attempt's mechanism cost is charged whether or not it takes
       effect, but only an apply that reports success counts as an
       adaptation — a no-op apply (e.g. an external agent losing the
       ownership race) must not inflate metrics or publish an event. *)
    Cost.charge ~scratch:t.scratch cost;
    if not (apply ()) then false
    else begin
      t.adaptation_count <- t.adaptation_count + 1;
      t.adaptation_log <- (Butterfly.Ops.now (), label) :: t.adaptation_log;
      t.cost_sum <- Cost.( + ) t.cost_sum cost;
      if Butterfly.Ops.annotations_enabled () then
        Butterfly.Ops.annotate
          (Butterfly.Ops.A_adaptation { obj_name = t.obj_name; kind = t.obj_kind; label });
      true
    end

let tick t =
  match Sensor.tick t.sensor with None -> false | Some obs -> decide t obs

let feed t obs = decide t obs
let samples t = Sensor.samples_taken t.sensor
let adaptations t = t.adaptation_count
let last_label t = match t.adaptation_log with [] -> None | (_, l) :: _ -> Some l
let log t = List.rev t.adaptation_log

let stats t =
  {
    Registry.samples = samples t;
    policy_runs = t.policy_run_count;
    adaptations = t.adaptation_count;
    total_cost = t.cost_sum;
    last_label = last_label t;
    log = log t;
  }

let create ~spec ~home ~sensor ~read ~apply ~metric =
  let name = spec.Policy.Spec.s_name and kind = spec.Policy.Spec.s_kind in
  let scratch = Butterfly.Ops.alloc1 ~node:home () in
  Butterfly.Ops.mark_sync_words [| scratch |];
  let t =
    {
      obj_name = name;
      obj_kind = kind;
      sensor;
      policy = Policy.Spec.compile ~read ~apply ~metric spec;
      scratch;
      policy_run_count = 0;
      adaptation_count = 0;
      adaptation_log = [];
      cost_sum = Cost.zero;
    }
  in
  Registry.register ~name ~kind ~stats:(fun () -> stats t) ~spec ();
  t
