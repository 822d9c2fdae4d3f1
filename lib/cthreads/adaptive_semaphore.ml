open Butterfly
module Attribute = Adaptive_core.Attribute
module Adaptive = Adaptive_core.Adaptive
module Sensor = Adaptive_core.Sensor

type t = {
  mutex : Spin.t;
  permits : Memory.addr;  (* simulated word: current permit count *)
  waiters : int Queue.t;  (* host-side FIFO of blocked tids *)
  spin_ns : int Attribute.t;  (* acquire spin budget before blocking *)
  loop : Adaptive.t;
}

let probe_gap_ns = Spin.probe_gap_ns
let max_budget_ns = 19_200
let step_up b = if b = 0 then probe_gap_ns * 2 else Int.min max_budget_ns (b * 2)
let step_down b = if b <= probe_gap_ns * 2 then 0 else b / 2

(* Permits turning over with nobody queued means waits are short —
   spin for them; a standing queue means a permit takes long enough to
   come back that blocking is the right strategy (the inverse of a
   lock's simple-adapt, because here depth measures permit latency).
   As a spec: spin-more only on an empty queue, spin-less at a depth
   of 2 or more. *)
let policy_spec ?(name = "adaptive-semaphore") () =
  Spin_ladder.spec ~name ~kind:"semaphore" ~attribute:(name ^ ".acquire-spin-ns")
    ~metric:"waiting-at-release" ~spin_if_under:0 ~block_if_over:2 ~step_up ~step_down
    ~max_spin:max_budget_ns 0

let create ?node ?(name = "adaptive-semaphore") n =
  if n < 0 then invalid_arg "Adaptive_semaphore.create: negative permits";
  let permits = Ops.alloc1 ?node () in
  Ops.mark_sync_words [| permits |];
  Ops.write permits n;
  let home = match node with Some p -> p | None -> Ops.my_processor () in
  let rec t =
    lazy
      {
        mutex = Spin.create ?node ();
        permits;
        waiters = Queue.create ();
        spin_ns = Attribute.make_at ~name:"acquire-spin-ns" ~node:home 0;
        loop =
          Adaptive.create
            ~spec:(policy_spec ~name ()) ~home
            ~sensor:(Sensor.make ~period:2 (fun () -> Queue.length (Lazy.force t).waiters))
            ~read:(fun () -> Attribute.get (Lazy.force t).spin_ns)
            ~apply:(fun v ->
              Attribute.set (Lazy.force t).spin_ns v;
              true);
      }
  in
  Lazy.force t

(* One locked attempt at taking a permit. *)
let try_take t =
  Spin.lock t.mutex;
  let n = Ops.read t.permits in
  let ok = n > 0 in
  if ok then Ops.write t.permits (n - 1);
  Spin.unlock t.mutex;
  ok

let acquire t =
  if not (try_take t) then begin
    (* Spin phase: poll the permit word racily as a hint and retry the
       locked take when it looks positive. We are not queued, so a
       release in this window increments the count rather than handing
       off — exactly what the poll watches for. *)
    let budget = Attribute.get t.spin_ns in
    let spent = ref 0 in
    let got = ref false in
    while (not !got) && !spent < budget do
      spent := !spent + probe_gap_ns;
      (* Gap plus hint read, fused ([expect:-1] never matches: the
         conditional wait belongs to the gap, which here precedes the
         read). *)
      if Ops.read_hint ~pre_ns:probe_gap_ns ~expect:(-1) t.permits > 0 then
        got := try_take t
    done;
    if not !got then begin
      (* Register under the mutex, re-checking first: a release between
         our last poll and here must either leave a visible permit or
         find us already queued for direct handoff. *)
      Spin.lock t.mutex;
      let n = Ops.read t.permits in
      if n > 0 then begin
        Ops.write t.permits (n - 1);
        Spin.unlock t.mutex
      end
      else begin
        Queue.add (Ops.self ()) t.waiters;
        Spin.unlock t.mutex;
        (* A release racing ahead leaves a wake token, so this never hangs. *)
        Ops.block ()
      end
    end
  end

let try_acquire t = try_take t

let release t =
  (* Closely-coupled tick: sample queue depth before the handoff. *)
  ignore (Adaptive.tick t.loop);
  Spin.lock t.mutex;
  match Queue.take_opt t.waiters with
  | Some tid ->
    Spin.unlock t.mutex;
    (* Hand the permit directly to the waiter. *)
    Ops.wakeup tid
  | None ->
    Ops.write t.permits (Ops.read t.permits + 1);
    Spin.unlock t.mutex

let spin_budget_ns t = Attribute.get t.spin_ns
