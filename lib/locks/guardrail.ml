module Policy = Adaptive_core.Policy

type params = { clamp_max : int; pathological_limit : int; cooldown : int }

let default_params = { clamp_max = 64; pathological_limit = 4; cooldown = 8 }

let spec params ~wedge ~fallback ~label ~cost =
  {
    Policy.Spec.g_clamp_lo = 0;
    g_clamp_hi = params.clamp_max;
    g_wedge = wedge;
    g_limit = params.pathological_limit;
    g_cooldown = params.cooldown;
    g_fallback = fallback;
    g_fallback_label = label;
    g_fallback_cost = cost;
  }

let create ?(params = default_params) () =
  if params.clamp_max < 0 || params.pathological_limit <= 0 || params.cooldown < 0 then
    invalid_arg "Guardrail.create";
  Policy.Guard.create ~pathological_limit:params.pathological_limit
    ~cooldown:params.cooldown ()
