type t = {
  spec : Policy.Spec.t;
  sensor : Sensor.t;
  read : unit -> int;
  apply : int -> bool;
  mutable state : Policy.Spec.state;
  scratch : Butterfly.Memory.addr;
  mutable policy_run_count : int;
  mutable adaptation_count : int;
  mutable adaptation_log : (int * string) list;  (* newest first *)
  mutable cost_sum : Cost.t;
}

let decide t metric =
  t.policy_run_count <- t.policy_run_count + 1;
  let next, action = Policy.Spec.step t.spec t.state ~metric ~cur:(t.read ()) in
  t.state <- next;
  match action with
  | Policy.Spec.Stay -> false
  | Policy.Spec.Fire { target; label; cost; on_fail; _ } ->
    (* The attempt's mechanism cost is charged whether or not it takes
       effect, but only an apply that reports success counts as an
       adaptation — a no-op apply (e.g. an external agent losing the
       ownership race) must not inflate metrics or publish an event. *)
    Cost.charge ~scratch:t.scratch cost;
    if not (t.apply target) then begin
      t.state <- on_fail;
      false
    end
    else begin
      t.adaptation_count <- t.adaptation_count + 1;
      t.adaptation_log <- (Butterfly.Ops.now (), label) :: t.adaptation_log;
      t.cost_sum <- Cost.( + ) t.cost_sum cost;
      if Butterfly.Ops.annotations_enabled () then
        Butterfly.Ops.annotate
          (Butterfly.Ops.A_adaptation
             { obj_name = t.spec.s_name; kind = t.spec.s_kind; label });
      true
    end

let tick t =
  match Sensor.tick t.sensor with None -> false | Some metric -> decide t metric

let feed = decide
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

let create ~spec ~home ~sensor ~read ~apply =
  let scratch = Butterfly.Ops.alloc1 ~node:home () in
  Butterfly.Ops.mark_sync_words [| scratch |];
  let t =
    {
      spec;
      sensor;
      read;
      apply;
      state = Policy.Spec.fresh;
      scratch;
      policy_run_count = 0;
      adaptation_count = 0;
      adaptation_log = [];
      cost_sum = Cost.zero;
    }
  in
  Registry.register ~spec ~stats:(fun () -> stats t);
  t
