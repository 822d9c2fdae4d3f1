module Policy = Adaptive_core.Policy
module Cost = Adaptive_core.Cost

(* Per config the spin-more step is tried first, each step costs one
   read + one write (the paper's simple waiting-policy
   reconfiguration), and a step that would not move the budget is
   omitted rather than emitted as a self-loop. *)
let spec ~name ~kind ~attribute ~metric ~spin_if_under ~block_if_over ~step_up
    ~step_down ~max_spin init =
  let values = Policy.Spec.reachable ~next:(fun v -> [ step_up v; step_down v ]) init in
  let configs =
    List.map
      (fun v -> { Policy.Spec.c_name = string_of_int v ^ "ns"; c_value = v })
      values
  in
  let transitions =
    List.concat_map
      (fun v ->
        (if v < max_spin && step_up v <> v then
           [
             {
               Policy.Spec.t_from = v;
               t_cond = Policy.Spec.cond 0 ~hi:spin_if_under;
               t_target = step_up v;
               t_label = "spin-more";
               t_repeats = 1;
               t_cost = Cost.reads_writes 1 1;
             };
           ]
         else [])
        @
        if v > 0 && step_down v <> v then
          [
            {
              Policy.Spec.t_from = v;
              t_cond = Policy.Spec.cond block_if_over;
              t_target = step_down v;
              t_label = "spin-less";
              t_repeats = 1;
              t_cost = Cost.reads_writes 1 1;
            };
          ]
        else [])
      values
  in
  {
    Policy.Spec.s_name = name;
    s_kind = kind;
    s_attribute = attribute;
    s_metric = metric;
    s_monotone = Policy.Spec.Up_at_low;
    s_configs = configs;
    s_initial = init;
    s_transitions = transitions;
    s_guard = None;
  }
