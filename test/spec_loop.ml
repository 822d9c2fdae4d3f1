(* Policy specs driven the two ways the tests need: the pure step alone,
   and the feedback loop every adaptive object runs (an [Adaptive.t]
   over an int attribute, inside a simulation), which also adopts a
   fire's [on_fail] state when its apply fails. *)

module Adaptive = Adaptive_core.Adaptive
module Spec = Adaptive_core.Policy.Spec

(* [steps spec ~cur] feeds [spec] one metric at a time through
   [Spec.step], applying every fire to [cur]; each sample returns
   "none" or the fired label. *)
let steps spec ~cur =
  let st = ref Spec.fresh in
  fun metric ->
    let next, action = Spec.step spec !st ~metric ~cur:!cur in
    st := next;
    match action with
    | Spec.Stay -> "none"
    | Spec.Fire { target; label; _ } ->
      cur := target;
      label

(* Runs [f] as the main thread of a fresh default machine; a failed
   check inside [f] surfaces as itself, not as a thread crash. *)
let in_sim f =
  try Butterfly.Sched.run (Butterfly.Sched.create Butterfly.Config.default) f
  with Butterfly.Sched.Thread_crash (_, e) -> raise e

type t = { loop : Adaptive.t; spec : Spec.t; attempt : (int * bool) option ref }

(* A loop running [spec] over the attribute [cur]; [accept v] decides
   whether a reconfiguration to [v] takes effect. Must run inside a
   simulation. *)
let create ~accept ~cur spec =
  let attempt = ref None in
  let loop =
    Adaptive.create ~spec ~home:0
      ~sensor:(Adaptive_core.Sensor.make (fun () -> !cur))
      ~read:(fun () -> !cur)
      ~apply:(fun v ->
        let ok = accept v in
        if ok then cur := v;
        attempt := Some (v, ok);
        ok)
  in
  { loop; spec; attempt }

let always _ = true

(* One sample through [Adaptive.feed]: the fire's target and whether
   its apply took effect, or [None] when the policy stayed. *)
let feed t metric =
  t.attempt := None;
  ignore (Adaptive.feed t.loop metric : bool);
  !(t.attempt)

(* [feed], named: "none", the applied transition's label as the loop
   logged it, or the target configuration's name and "!" when the
   apply failed (a failed apply logs nothing). *)
let step t metric =
  match feed t metric with
  | None -> "none"
  | Some (_, true) -> snd (List.hd (List.rev (Adaptive.log t.loop)))
  | Some (v, false) -> Spec.config_name t.spec v ^ "!"
