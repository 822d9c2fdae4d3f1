open Butterfly
module Attribute = Adaptive_core.Attribute
module Adaptive = Adaptive_core.Adaptive
module Sensor = Adaptive_core.Sensor

type t = {
  mutex : Spin.t;
  parties : int;
  count : Memory.addr;  (* arrivals in the current cycle *)
  gen : Memory.addr;  (* generation: bumped when a cycle completes *)
  mutable sleepers : int list;
  mutable first_arrival : int;  (* virtual time of this cycle's first arrival *)
  mutable last_spread : int;  (* inter-arrival spread of the last completed cycle *)
  spin_ns : int Attribute.t;  (* arrival spin budget before blocking *)
  loop : Adaptive.t;
}

let probe_gap_ns = Spin.probe_gap_ns

(* Budget ladder shared with the default policy: each adaptation moves
   one step, so a misprediction costs one cycle of slightly-wrong
   spinning, not a swing to an extreme. *)
let step_up ~max_spin b = if b = 0 then probe_gap_ns * 2 else Int.min max_spin (b * 2)
let step_down b = if b <= probe_gap_ns * 2 then 0 else b / 2

(* The spread-driven spin-budget policy as a declarative spec:
   configurations are the doubling ladder reachable from budget 0,
   [spin-more] on a tight arrival spread, [spin-less] on a straggling
   one. [create] runs exactly this spec; the static checker
   ([Analysis.Policy_check]) model-checks it. *)
let policy_spec ?(name = "adaptive-barrier") ?(spin_if_under = 800_000)
    ?(block_if_over = 1_600_000) ?(max_spin_ns = 614_400) () =
  Spin_ladder.spec ~name ~kind:"barrier" ~attribute:(name ^ ".arrival-spin-ns")
    ~metric:"arrival-spread-ns" ~spin_if_under ~block_if_over
    ~step_up:(step_up ~max_spin:max_spin_ns) ~step_down ~max_spin:max_spin_ns 0

(* The scale anchor is the machine's deschedule/resume round trip
   (block + wakeup latency + unblock, ~450 us on the default config):
   a spread clearly below it means arrivals are tight enough that
   spinning them in saves a descheduling; a spread clearly above it
   means someone straggles for longer than a sleep costs. *)
let create ?node ?(name = "adaptive-barrier") ?(period = 1) ?(spin_if_under = 800_000)
    ?(block_if_over = 1_600_000) ?(max_spin_ns = 614_400) n =
  if n < 1 then invalid_arg "Adaptive_barrier.create: need at least one party";
  (* A spread in [block_if_over, spin_if_under] would satisfy both the
     spin-more and spin-less conditions, so every sample adapts and the
     budget ping-pongs forever — the thrash cycle the static checker
     flags. Reject the parameterization outright. *)
  if spin_if_under >= block_if_over then
    invalid_arg
      "Adaptive_barrier.create: spin_if_under must be below block_if_over \
       (overlapping thresholds thrash)";
  let words = Ops.alloc ?node 2 in
  Ops.mark_sync_words words;
  let home = match node with Some p -> p | None -> Ops.my_processor () in
  let rec t =
    lazy
      {
        mutex = Spin.create ?node ();
        parties = n;
        count = words.(0);
        gen = words.(1);
        sleepers = [];
        first_arrival = 0;
        last_spread = 0;
        spin_ns = Attribute.make_at ~name:"arrival-spin-ns" ~node:home 0;
        loop =
          Adaptive.create
            ~spec:(policy_spec ~name ~spin_if_under ~block_if_over ~max_spin_ns ())
            ~home
            ~sensor:(Sensor.make ~period (fun () -> (Lazy.force t).last_spread))
            ~read:(fun () -> Attribute.get (Lazy.force t).spin_ns)
            ~apply:(fun v ->
              Attribute.set (Lazy.force t).spin_ns v;
              true);
      }
  in
  Lazy.force t

let spin_then_block t my_gen =
  (* Spin phase: poll the generation word up to the current budget.
     The budget attribute is re-read on entry only; one stale arrival
     costs at most one mis-budgeted wait. *)
  let budget = Attribute.get t.spin_ns in
  (* Each in-budget iteration (generation read plus the gap while it is
     still ours) is one fused effect; the budget-exhausted exit still
     pays the bare read the pre-fusion loop condition charged. *)
  let rec poll spent =
    if spent < budget then begin
      if Ops.read_hint ~gap_ns:probe_gap_ns ~expect:my_gen t.gen = my_gen then
        poll (spent + probe_gap_ns)
    end
    else ignore (Ops.read t.gen : int)
  in
  poll 0;
  if Ops.read t.gen = my_gen then begin
    (* Budget exhausted: fall back to blocking. Re-check the generation
       under the mutex (mirrors Lock_core's sleep registration): the
       releasing thread bumps [gen] while holding it, so either we see
       the bump here, or we are on the sleeper list before it wakes. *)
    Spin.lock t.mutex;
    if Ops.read t.gen = my_gen then begin
      t.sleepers <- Ops.self () :: t.sleepers;
      Spin.unlock t.mutex;
      Ops.block ()
    end
    else Spin.unlock t.mutex
  end

let await t =
  Spin.lock t.mutex;
  let now = Ops.now () in
  let arrived = Ops.read t.count + 1 in
  if arrived = 1 then t.first_arrival <- now;
  if arrived = t.parties then begin
    let sleepers = t.sleepers in
    t.sleepers <- [];
    t.last_spread <- now - t.first_arrival;
    Ops.write t.count 0;
    Ops.write t.gen (Ops.read t.gen + 1);
    Spin.unlock t.mutex;
    List.iter Ops.wakeup (List.rev sleepers);
    (* Closely-coupled tick: one instrumentation event per completed
       cycle, observing the spread just measured. *)
    ignore (Adaptive.tick t.loop)
  end
  else begin
    Ops.write t.count arrived;
    let my_gen = Ops.read t.gen in
    Spin.unlock t.mutex;
    spin_then_block t my_gen
  end

let spin_budget_ns t = Attribute.get t.spin_ns
let spin_attr t = t.spin_ns
let loop t = t.loop
