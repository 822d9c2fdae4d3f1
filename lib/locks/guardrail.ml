module Policy = Adaptive_core.Policy

type params = { clamp_max : int; pathological_limit : int; cooldown : int }

let default_params = { clamp_max = 64; pathological_limit = 4; cooldown = 8 }

(* The streak/cooldown state machine lives in [Policy.Guard] (usable by
   any adaptive object); this module adds the lock-specific clamping
   and the waiting-count vocabulary. *)
type t = { p : params; g : Policy.Guard.t }

let create ?(params = default_params) () =
  if params.clamp_max < 0 || params.pathological_limit <= 0 || params.cooldown < 0 then
    invalid_arg "Guardrail.create";
  {
    p = params;
    g =
      Policy.Guard.create ~pathological_limit:params.pathological_limit
        ~cooldown:params.cooldown ();
  }

type verdict = Sample of int | Fallback

let clamp t waiting = Int.max 0 (Int.min t.p.clamp_max waiting)

let classify t ~waiting ~wedged_low =
  let clamped = clamp t waiting in
  (clamped, clamped <> waiting || wedged_low)

let observe t ~waiting ~wedged_low =
  let clamped, pathological = classify t ~waiting ~wedged_low in
  if Policy.Guard.note t.g ~pathological then Fallback else Sample clamped

let guard t = t.g
let streak t = Policy.Guard.streak t.g
let fallbacks t = Policy.Guard.fallbacks t.g
