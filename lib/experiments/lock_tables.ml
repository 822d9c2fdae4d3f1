open Butterfly
open Cthreads

type row = { op : string; local_us : float; remote_us : float }

let cfg = { Config.default with Config.processors = 6 }

let run main = Sched.run (Sched.create cfg) main

let us ns_total iters = float_of_int ns_total /. float_of_int iters /. 1000.0

(* Average uncontended lock/unlock latency measured from [proc] on a
   lock homed at [home]. *)
let measure_ops ~make ~proc ~home =
  let iters = 10 in
  run (fun () ->
      let lk = make ~home in
      let lock_ns = ref 0 and unlock_ns = ref 0 in
      let t =
        Cthread.fork ~proc (fun () ->
            for _ = 1 to iters do
              let t0 = Cthread.now () in
              Locks.Lock_core.lock lk;
              let t1 = Cthread.now () in
              Locks.Lock_core.unlock lk;
              let t2 = Cthread.now () in
              lock_ns := !lock_ns + (t1 - t0);
              unlock_ns := !unlock_ns + (t2 - t1);
              Cthread.work 5_000
            done)
      in
      Cthread.join t;
      (us !lock_ns iters, us !unlock_ns iters))

let of_kind kind ~home = Locks.Lock.create ~home kind

let atomior ~home =
  let policy = Locks.Waiting.pure_spin ~node:home () in
  Locks.Waiting.freeze policy;
  Locks.Lock_core.create ~name:"atomior" ~home
    ~impl:(Locks.Lock_core.Central (policy, Locks.Lock_costs.atomior)) ()

let kinds =
  [
    ("atomior", atomior);
    ("spin-lock", of_kind Locks.Lock.Spin);
    ("spin-with-backoff", of_kind Locks.Lock.Backoff);
    ("blocking-lock", of_kind Locks.Lock.Blocking);
    ("adaptive lock", of_kind Locks.Lock.adaptive_default);
  ]

let lock_unlock_tables ?domains () =
  Engine.Runner.map ?domains
    (fun (name, make) ->
      let local_lock, local_unlock = measure_ops ~make ~proc:1 ~home:1 in
      let remote_lock, remote_unlock = measure_ops ~make ~proc:2 ~home:1 in
      (name, (local_lock, remote_lock), (local_unlock, remote_unlock)))
    kinds

let table4 ?domains () =
  List.map
    (fun (name, (l, r), _) -> { op = name; local_us = l; remote_us = r })
    (lock_unlock_tables ?domains ())

let table5 ?domains () =
  List.filter_map
    (fun (name, _, (l, r)) ->
      if name = "atomior" then None else Some { op = name; local_us = l; remote_us = r })
    (lock_unlock_tables ?domains ())

(* Locking cycle: time from the owner's unlock to the waiter's
   completed acquisition on an already-locked lock. *)
let measure_cycle ~make ~waiter_proc ~home =
  run (fun () ->
      let lk = make ~home in
      let owner_has_lock = ref false in
      let unlock_at = ref 0 and acquired_at = ref 0 in
      let owner =
        Cthread.fork ~proc:3 (fun () ->
            Locks.Lock_core.lock lk;
            owner_has_lock := true;
            (* Hold long enough for the waiter to settle into its
               waiting mode. *)
            Cthread.work 800_000;
            unlock_at := Cthread.now ();
            Locks.Lock_core.unlock lk)
      in
      let waiter =
        Cthread.fork ~proc:waiter_proc (fun () ->
            while not !owner_has_lock do
              Cthread.delay 5_000
            done;
            Locks.Lock_core.lock lk;
            acquired_at := Cthread.now ();
            Locks.Lock_core.unlock lk)
      in
      Cthread.join owner;
      Cthread.join waiter;
      float_of_int (!acquired_at - !unlock_at) /. 1000.0)

let table6 ?domains () =
  let static =
    [
      ("spin", of_kind Locks.Lock.Spin);
      ("spin-with-backoff", of_kind Locks.Lock.Backoff);
      ("blocking-lock", of_kind Locks.Lock.Blocking);
    ]
  in
  Engine.Runner.map ?domains
    (fun (name, make) ->
      {
        op = name;
        local_us = measure_cycle ~make ~waiter_proc:1 ~home:1;
        remote_us = measure_cycle ~make ~waiter_proc:2 ~home:1;
      })
    static

let table7 () =
  let spin_cfg c =
    Locks.Lock_core.configure_waiting c ~spin_count:max_int ~sleep:false ()
  in
  let block_cfg c = Locks.Lock_core.configure_waiting c ~spin_count:0 ~sleep:true () in
  (* The adaptive lock's word and waiting policy pinned to one
     configuration: the centralized word under the reconfigurable
     profile, built without the feedback loop, since an unlock would
     tick the loop and let it reconfigure the lock mid-measurement. *)
  let row op configure =
    let make ~home =
      let c = Locks.Lock.create ~home Locks.Lock.Reconfigurable in
      configure c;
      c
    in
    {
      op;
      local_us = measure_cycle ~make ~waiter_proc:1 ~home:1;
      remote_us = measure_cycle ~make ~waiter_proc:2 ~home:1;
    }
  in
  [ row "spin" spin_cfg; row "blocking" block_cfg ]

let table8 () =
  let timed ~proc f =
    run (fun () ->
        let r = Locks.Lock.create ~home:1 Locks.Lock.Reconfigurable in
        let dt = ref 0 in
        let t =
          Cthread.fork ~proc (fun () ->
              let t0 = Cthread.now () in
              f r;
              dt := Cthread.now () - t0)
        in
        Cthread.join t;
        float_of_int !dt /. 1000.0)
  in
  let acquisition r = ignore (Locks.Lock_core.acquire_ownership r) in
  let conf_waiting r = Locks.Lock_core.configure_waiting r ~spin_count:5 () in
  let conf_sched r = Locks.Lock_core.configure_scheduler r Locks.Lock_sched.Priority in
  let monitor_sample r =
    let sensor =
      Adaptive_core.Sensor.make ~overhead_instrs:Locks.Lock_costs.monitor_sample_instrs
        (fun () -> Locks.Lock_core.waiting_now r)
    in
    ignore (Adaptive_core.Sensor.force sensor)
  in
  [
    {
      op = "acquisition";
      local_us = timed ~proc:1 acquisition;
      remote_us = timed ~proc:2 acquisition;
    };
    {
      op = "configure(waiting policy)";
      local_us = timed ~proc:1 conf_waiting;
      remote_us = timed ~proc:2 conf_waiting;
    };
    {
      op = "configure(scheduler)";
      local_us = timed ~proc:1 conf_sched;
      remote_us = timed ~proc:2 conf_sched;
    };
    { op = "monitor (one state variable)"; local_us = timed ~proc:1 monitor_sample; remote_us = nan };
  ]
