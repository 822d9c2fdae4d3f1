open Butterfly
module Attribute = Adaptive_core.Attribute
module Sensor = Adaptive_core.Sensor
module Policy = Adaptive_core.Policy
module Adaptive = Adaptive_core.Adaptive

type preference = Reader_pref | Writer_pref

(* State word encoding: bit 0 = writer holds; higher bits = 2 x active
   readers. Readers CAS in (+2) only while bit 0 is clear; the writer
   CASes 0 -> 1. Waiting runs through Combined_wait (the same
   attribute-driven spin-then-block machinery as Lock_core): failed
   probes spin per the Waiting attributes, then register on a sleeper
   list under the guard word and block until a release grants the lock
   directly (readers are granted their +2, a writer its bit, before
   being woken — a woken thread owns the lock, no re-probe). *)
type t = {
  rw_name : string;
  word : Memory.addr;
  guard : Memory.addr;  (* protects the sleeper lists and grants *)
  wwait : Memory.addr;  (* waiting-writer count (the monitored variable) *)
  pref : preference Attribute.t;  (* the reconfigurable bias attribute *)
  wait_policy : Waiting.t;
  mutable reader_sleepers : int list;  (* FIFO, oldest first *)
  mutable writer_sleepers : int list;  (* FIFO, oldest first *)
  loop : Adaptive.t option;
  mutable reader_acqs : int;
  mutable writer_acqs : int;
  mutable writer_wait_ns : int;
}

let retry_gap_ns = 15_000

(* Probes before a contended reader/writer falls back to sleeping: a
   handful of retry_gap_ns-spaced attempts, the combined configuration
   the paper recommends as default. *)
let default_policy ~home () =
  Waiting.make ~node:home ~spin_count:6 ~delay_ns:retry_gap_ns ~backoff:false
    ~sleep:true ~timeout_ns:0 ()

let pref_value = function Reader_pref -> 0 | Writer_pref -> 1

(* The preference-adaptation policy as a declarative spec: flip to
   writer preference the moment a writer is seen waiting; give the
   readers their preference back only after [calm_repeats] consecutive
   writer-free samples (hysteresis, so one straggling writer does not
   bounce the bias). *)
let calm_repeats = 3

let policy_spec ?(name = "rw-lock") () =
  let module Spec = Adaptive_core.Policy.Spec in
  let cost = Lock_costs.configure_waiting_policy in
  {
    Spec.s_name = name;
    s_kind = "rw-lock";
    s_attribute = name ^ ".rw-preference";
    s_metric = "waiting-writers";
    s_monotone = Spec.Up_at_high;
    s_configs =
      [
        { Spec.c_name = "reader-pref"; c_value = 0 };
        { Spec.c_name = "writer-pref"; c_value = 1 };
      ];
    s_initial = pref_value Reader_pref;
    s_transitions =
      [
        {
          Spec.t_from = 0;
          t_cond = Spec.cond 1;
          t_target = 1;
          t_label = "writer-pref";
          t_repeats = 1;
          t_cost = cost;
        };
        {
          Spec.t_from = 1;
          t_cond = Spec.cond 0 ~hi:0;
          t_target = 0;
          t_label = "reader-pref";
          t_repeats = calm_repeats;
          t_cost = cost;
        };
      ];
    s_guard = None;
  }

let create ?(name = "rw-lock") ?(adaptive = false) ?policy ~home () =
  let words = Ops.alloc ~node:home 3 in
  Ops.mark_sync_words words;
  let wait_policy =
    match policy with Some p -> p | None -> default_policy ~home ()
  in
  let t =
    {
      rw_name = name;
      word = words.(0);
      guard = words.(1);
      wwait = words.(2);
      pref = Attribute.make_at ~name:"rw-preference" ~node:home Reader_pref;
      wait_policy;
      reader_sleepers = [];
      writer_sleepers = [];
      loop = None;
      reader_acqs = 0;
      writer_acqs = 0;
      writer_wait_ns = 0;
    }
  in
  if not adaptive then t
  else begin
    let sensor =
      Sensor.make ~period:2 ~overhead_instrs:40 (fun () -> Ops.read words.(2))
    in
    (* The running spec: flip to writer preference on any waiting
       writer, back to reader preference after [calm_repeats]
       consecutive writer-free samples (the spec's hysteresis
       counter). *)
    let loop =
      Adaptive.create
        ~spec:(policy_spec ~name ())
        ~home ~sensor
        ~read:(fun () -> pref_value (Attribute.get t.pref))
        ~apply:(fun v ->
          Attribute.set t.pref (if v = 1 then Writer_pref else Reader_pref);
          true)
    in
    { t with loop = Some loop }
  end

let preference t = Attribute.get t.pref
let adaptations t = match t.loop with Some l -> Adaptive.adaptations l | None -> 0
let reader_acquisitions t = t.reader_acqs

let mean_writer_wait_ns t =
  if t.writer_acqs = 0 then 0.0
  else float_of_int t.writer_wait_ns /. float_of_int t.writer_acqs

(* Both reader and writer acquisitions annotate with the state word as
   the lock identity: the lock-order and discipline passes then see one
   lock regardless of mode, so a reader-side acquisition ordered
   against another lock closes the same cycle a writer-side one would. *)
let note_request t =
  Ops.annotate (Ops.A_lock_request { lock = t.word; lock_name = t.rw_name })

let note_acquired t =
  if Ops.annotations_enabled () then
    Ops.annotate
      (Ops.A_lock_acquire
         {
           lock = t.word;
           lock_name = t.rw_name;
           spin_wait = not (Attribute.get t.wait_policy.Waiting.sleep);
         })

let note_released t =
  Ops.annotate (Ops.A_lock_release { lock = t.word; lock_name = t.rw_name })

let guard_lock t =
  while not (Ops.test_and_set t.guard) do
    ()
  done

let guard_unlock t = Ops.write t.guard 0

(* One reader acquisition attempt. Under writer preference, defer to
   waiting writers (spinning or sleeping — both count in wwait). *)
let read_probe t =
  if Attribute.get t.pref = Writer_pref && Ops.read t.wwait > 0 then false
  else begin
    let v = Ops.read t.word in
    v land 1 = 0 && Ops.compare_and_swap t.word ~expected:v ~desired:(v + 2)
  end

let write_probe t = Ops.compare_and_swap t.word ~expected:0 ~desired:1

(* Sleep paths: register under the guard after one last probe — every
   grant also runs under the guard, so either the re-probe sees the
   state that would have woken us, or we are on the list before the
   granter looks. A woken thread was granted the lock (its +2 or the
   writer bit) before its wakeup, so waking is acquiring.

   The reader probe can also fail from pure CAS contention: an
   unguarded spinning reader's +2 (or a leaving reader's -2) between
   our read and CAS, with the word readable and no writer to defer to.
   Registering then would strand us — only [write_unlock] drains
   [reader_sleepers], and nothing guarantees a writer ever arrives —
   so retry until the probe either succeeds or fails for a reason that
   guarantees a future [write_unlock] (writer holds the word, or we
   defer to a waiting writer). *)
let reader_sleep t =
  guard_lock t;
  let rec settle () =
    if read_probe t then true
    else
      let deferring = Attribute.get t.pref = Writer_pref && Ops.read t.wwait > 0 in
      if (not deferring) && Ops.read t.word land 1 = 0 then settle ()
      else false
  in
  if settle () then guard_unlock t
  else begin
    t.reader_sleepers <- t.reader_sleepers @ [ Ops.self () ];
    guard_unlock t;
    Ops.block ();
    Ops.work_instrs 800 (* resume charge *)
  end

let writer_sleep t =
  guard_lock t;
  if write_probe t then guard_unlock t
  else begin
    t.writer_sleepers <- t.writer_sleepers @ [ Ops.self () ];
    guard_unlock t;
    Ops.block ();
    Ops.work_instrs 800 (* resume charge *)
  end

let read_lock t =
  let t0 = Ops.now () in
  Ops.work_instrs 180;
  note_request t;
  if not (read_probe t) then
    ignore
      (Combined_wait.wait ~policy:t.wait_policy ~since:t0
         ~probe:(fun ~gap_ns ~until:_ ->
           if read_probe t then Ops.Probe_acquired
           else begin
             Ops.work_instrs 180;
             Ops.work gap_ns;
             Ops.Probe_retrying
           end)
         ~sleep:(fun () -> reader_sleep t)
         ());
  note_acquired t;
  t.reader_acqs <- t.reader_acqs + 1

(* The last leaving reader hands the lock to the oldest sleeping
   writer: CAS 0 -> 1 under the guard, then wake. A failed CAS means a
   fresh reader (or a spinning writer) slipped in; its own release will
   re-attempt the grant, so the chain never drops a sleeping writer. *)
let grant_writer_if_idle t =
  guard_lock t;
  (match t.writer_sleepers with
  | [] -> guard_unlock t
  | tid :: rest ->
    if write_probe t then begin
      t.writer_sleepers <- rest;
      guard_unlock t;
      Ops.wakeup tid
    end
    else guard_unlock t);
  ()

let read_unlock t =
  Ops.work_instrs 90;
  note_released t;
  let remaining = Ops.fetch_and_add t.word (-2) - 2 in
  if remaining = 0 then grant_writer_if_idle t;
  match t.loop with Some loop -> ignore (Adaptive.tick loop) | None -> ()

let write_lock t =
  let t0 = Ops.now () in
  Ops.work_instrs 220;
  note_request t;
  ignore (Ops.fetch_and_add t.wwait 1);
  if not (write_probe t) then
    ignore
      (Combined_wait.wait ~policy:t.wait_policy ~since:t0
         ~probe:(fun ~gap_ns ~until:_ ->
           if write_probe t then Ops.Probe_acquired
           else begin
             Ops.work_instrs 220;
             Ops.work gap_ns;
             Ops.Probe_retrying
           end)
         ~sleep:(fun () -> writer_sleep t)
         ());
  note_acquired t;
  ignore (Ops.fetch_and_add t.wwait (-1));
  t.writer_acqs <- t.writer_acqs + 1;
  t.writer_wait_ns <- t.writer_wait_ns + (Ops.now () - t0)

let write_unlock t =
  Ops.work_instrs 90;
  note_released t;
  guard_lock t;
  let writers_first =
    Attribute.get t.pref = Writer_pref || t.reader_sleepers = []
  in
  match (if writers_first then t.writer_sleepers else []) with
  | tid :: rest ->
    (* Direct handoff: the word stays held (bit 0 set); the sleeper
       owns it. *)
    t.writer_sleepers <- rest;
    guard_unlock t;
    Ops.wakeup tid
  | [] -> (
    match t.reader_sleepers with
    | [] -> (
      match t.writer_sleepers with
      | tid :: rest ->
        t.writer_sleepers <- rest;
        guard_unlock t;
        Ops.wakeup tid
      | [] ->
        Ops.write t.word 0;
        guard_unlock t)
    | readers ->
      (* Grant every sleeping reader its +2 in one write, then wake
         them; spinning readers may CAS in on top concurrently. *)
      t.reader_sleepers <- [];
      Ops.write t.word (2 * List.length readers);
      guard_unlock t;
      List.iter Ops.wakeup readers)

let with_read t f =
  read_lock t;
  match f () with
  | v ->
    read_unlock t;
    v
  | exception e ->
    read_unlock t;
    raise e

let with_write t f =
  write_lock t;
  match f () with
  | v ->
    write_unlock t;
    v
  | exception e ->
    write_unlock t;
    raise e
