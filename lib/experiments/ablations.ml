open Butterfly
open Cthreads

type sched_row = {
  sched : Locks.Lock_sched.kind;
  total_ns : int;
  mean_response_us : float;
  server_wait_us : float;
  client_wait_us : float;
}

(* The studies' machine: the default Butterfly cut to 8 processors. *)
let eight_procs = { Config.default with Config.processors = 8 }

let schedulers ?domains () =
  let results =
    Workloads.Client_server.compare_schedulers ?domains
      Workloads.Client_server.default
  in
  List.map
    (fun (sched, (r : Workloads.Client_server.result)) ->
      {
        sched;
        total_ns = r.Workloads.Client_server.total_ns;
        mean_response_us = r.Workloads.Client_server.mean_response_ns /. 1000.0;
        server_wait_us = r.Workloads.Client_server.server_mean_wait_ns /. 1000.0;
        client_wait_us = r.Workloads.Client_server.client_mean_wait_ns /. 1000.0;
      })
    results

type coupling_row = {
  coupling : string;
  total_ns : int;
  adaptations : int;
  max_lag_us : float;
}

(* A phased workload driven through an abstract lock interface so the
   closely- and loosely-coupled adaptive locks run the identical
   program. Six workers on processors 1-6; processor 7 is reserved for
   the loose variant's monitor thread. *)
let coupling_workload ~lock ~unlock =
  (* Twelve workers, two per processor (1-6): spinning in the storm
     phase starves the co-located compute threads, so adaptation
     timeliness matters. *)
  let workers = 12 in
  let barrier = Barrier.create ~node:0 workers in
  let phase active cs entries idx =
    Barrier.await barrier;
    if idx < active then
      for _ = 1 to entries do
        lock ();
        Cthread.work cs;
        unlock ();
        Cthread.work 10_000
      done
    else Cthread.work (entries * (cs + 10_000))
  in
  let body idx () =
    phase 1 4_000 50 idx;
    phase 12 150_000 10 idx;
    phase 1 4_000 50 idx
  in
  let threads =
    List.init workers (fun i -> Cthread.fork ~proc:(1 + (i mod 6)) (body i))
  in
  Cthread.join_all threads

(* An adaptive lock named as the closely-coupled ablations report it,
   and its feedback loop. *)
let adaptive_lock ?(params = Locks.Spin_budget.default_params) () =
  let lk =
    Locks.Lock_core.create ~name:"adaptive-lock" ~home:0
      ~impl:(Locks.Lock_core.Adaptive params) ()
  in
  (lk, Option.get (Locks.Lock_core.feedback lk))

let coupling ?domains () =
  let cfg = eight_procs in
  let close () =
    let sim = Sched.create cfg in
    let adaptations =
      Sched.run sim (fun () ->
          let lk, loop = adaptive_lock () in
          coupling_workload
            ~lock:(fun () -> Locks.Lock_core.lock lk)
            ~unlock:(fun () -> Locks.Lock_core.unlock lk);
          Adaptive_core.Adaptive.adaptations loop)
    in
    { coupling = "closely-coupled"; total_ns = Sched.final_time sim; adaptations; max_lag_us = 0.0 }
  in
  let loose () =
    let sim = Sched.create cfg in
    let adaptations, lag =
      Sched.run sim (fun () ->
          let lk =
            (* The general-purpose monitor batches trace records: its
               polling granularity is far coarser than the lock's
               event rate, which is what produces the adaptation lag. *)
            Monitoring.Loose_adaptive_lock.create ~home:0 ~monitor_proc:7
              ~poll_interval_ns:2_000_000 ()
          in
          coupling_workload
            ~lock:(fun () -> Monitoring.Loose_adaptive_lock.lock lk)
            ~unlock:(fun () -> Monitoring.Loose_adaptive_lock.unlock lk);
          let measured =
            Monitoring.Loose_adaptive_lock.(adaptations lk, max_lag_ns lk)
          in
          Monitoring.Loose_adaptive_lock.shutdown lk;
          measured)
    in
    {
      coupling = "loosely-coupled";
      total_ns = Sched.final_time sim;
      adaptations;
      max_lag_us = float_of_int lag /. 1000.0;
    }
  in
  Engine.Runner.map ?domains (fun run -> run ()) [ close; loose ]

type sampling_row = { period : int; total_ns : int; samples : int; adaptations : int }

let contended_adaptive_run ~params () =
  let cfg = eight_procs in
  let sim = Sched.create cfg in
  let lk, loop =
    Sched.run sim (fun () ->
        let lk, loop = adaptive_lock ~params () in
        let body i () =
          Cthread.work (i * 3_000);
          for _ = 1 to 30 do
            Locks.Lock_core.lock lk;
            Cthread.work 30_000;
            Locks.Lock_core.unlock lk;
            Cthread.work 40_000
          done
        in
        let threads = List.init 6 (fun i -> Cthread.fork ~proc:(1 + (i mod 7)) (body i)) in
        Cthread.join_all threads;
        (lk, loop))
  in
  let stats = Locks.Lock_core.stats lk in
  ( Sched.final_time sim,
    Adaptive_core.Adaptive.samples loop,
    Adaptive_core.Adaptive.adaptations loop,
    Locks.Lock_stats.blocks stats,
    Locks.Lock_stats.spin_probes stats )

let sampling ?domains ~periods () =
  Engine.Runner.map ?domains
    (fun period ->
      let params = { Locks.Spin_budget.default_params with sample_period = period } in
      let total_ns, samples, adaptations, _, _ = contended_adaptive_run ~params () in
      { period; total_ns; samples; adaptations })
    periods

type threshold_row = {
  waiting_threshold : int;
  n : int;
  total_ns : int;
  blocks : int;
  spin_probes : int;
}

let threshold ?domains ~thresholds ~ns () =
  let grid =
    List.concat_map
      (fun waiting_threshold -> List.map (fun n -> (waiting_threshold, n)) ns)
      thresholds
  in
  Engine.Runner.map ?domains
    (fun (waiting_threshold, n) ->
      let params =
        { Locks.Spin_budget.default_params with waiting_threshold; n }
      in
      let total_ns, _, _, blocks, spin_probes =
        contended_adaptive_run ~params ()
      in
      { waiting_threshold; n; total_ns; blocks; spin_probes })
    grid

type phase_row = {
  kind : Locks.Lock.kind;
  total_ns : int;
  adaptations : int;
  mean_wait_us : float;
}

let phases ?domains () =
  let kinds =
    [
      Locks.Lock.Spin;
      Locks.Lock.Blocking;
      Locks.Lock.Combined 10;
      Locks.Lock.adaptive_default;
    ]
  in
  Workloads.Phased.compare_kinds ?domains Workloads.Phased.default kinds
  |> List.map (fun (kind, (r : Workloads.Phased.result)) ->
         {
           kind;
           total_ns = r.Workloads.Phased.total_ns;
           adaptations = r.Workloads.Phased.adaptations;
           mean_wait_us = r.Workloads.Phased.mean_wait_ns /. 1000.0;
         })

type arch_row = {
  arch : string;
  lock_impl : string;
  total_ns : int;
  remote_accesses : int;
  mean_wait_us : float;
}

(* MS93's second recap experiment: implementation-specific lock
   configurations re-targeted across architectures. A heavily contended
   short critical section, run with four lock implementations on the
   NUMA machine and on its UMA variant. *)
let architecture ?domains () =
  let base = eight_procs in
  let machines = [ ("NUMA", base); ("UMA", Config.uma base) ] in
  let workers = 6 and iterations = 40 in
  let drive ~lock ~unlock =
    let body i () =
      Cthread.work (i * 2_000);
      for _ = 1 to iterations do
        lock ();
        Cthread.work 20_000;
        unlock ();
        Cthread.work 10_000
      done
    in
    let threads = List.init workers (fun i -> Cthread.fork ~proc:(i + 1) (body i)) in
    Cthread.join_all threads
  in
  let run_one arch cfg (impl_name, make) =
    let sim = Sched.create cfg in
    let mean_wait_us =
      Sched.run sim (fun () ->
          let lock, unlock, stats, cleanup = make () in
          drive ~lock ~unlock;
          let wait = Locks.Lock_stats.mean_wait_ns stats /. 1000.0 in
          cleanup ();
          wait)
    in
    {
      arch;
      lock_impl = impl_name;
      total_ns = Sched.final_time sim;
      remote_accesses = Memory.remote_accesses (Sched.memory sim);
      mean_wait_us;
    }
  in
  let implementations =
    [
      ( "centralized spin",
        fun () ->
          let lk = Locks.Lock.create ~home:1 Locks.Lock.Spin in
          ( (fun () -> Locks.Lock_core.lock lk),
            (fun () -> Locks.Lock_core.unlock lk),
            Locks.Lock_core.stats lk,
            fun () -> () ) );
      ( "local-spin (distributed)",
        fun () ->
          let lk = Locks.Local_spin_lock.create ~home:1 () in
          ( (fun () -> Locks.Local_spin_lock.lock lk),
            (fun () -> Locks.Local_spin_lock.unlock lk),
            Locks.Local_spin_lock.stats lk,
            fun () -> () ) );
      ( "blocking",
        fun () ->
          let lk = Locks.Lock.create ~home:1 Locks.Lock.Blocking in
          ( (fun () -> Locks.Lock_core.lock lk),
            (fun () -> Locks.Lock_core.unlock lk),
            Locks.Lock_core.stats lk,
            fun () -> () ) );
      ( "active (server thread)",
        fun () ->
          let lk = Locks.Active_lock.create ~server_proc:7 () in
          ( (fun () -> Locks.Active_lock.lock lk),
            (fun () -> Locks.Active_lock.unlock lk),
            Locks.Active_lock.stats lk,
            fun () -> Locks.Active_lock.shutdown lk ) );
    ]
  in
  let grid =
    List.concat_map
      (fun (arch, cfg) -> List.map (fun impl -> (arch, cfg, impl)) implementations)
      machines
  in
  Engine.Runner.map ?domains (fun (arch, cfg, impl) -> run_one arch cfg impl) grid

type barrier_row = {
  barrier_impl : string;
  total_ns : int;
  barrier_adaptations : int;
  final_spin_ns : int;
}

(* Phased barrier workload: twelve workers, two per processor (1-6),
   alternating balanced rounds (arrivals nearly simultaneous — spinning
   on the generation word beats a deschedule/resume pair) with a skewed
   middle phase where worker 0 straggles by 5 ms — a spinning arrival
   then starves the co-located straggler, so blocking is right. No
   fixed arrival strategy wins both phases; the adaptive barrier reads
   the inter-arrival spread and moves its spin budget. *)
let barriers ?domains () =
  let cfg = eight_procs in
  let workers = 12 in
  let rounds_balanced = 30 and rounds_skewed = 24 in
  let drive ~await =
    let body idx () =
      let round extra =
        Cthread.work (3_000 + extra);
        await ()
      in
      for _ = 1 to rounds_balanced do
        round 0
      done;
      for _ = 1 to rounds_skewed do
        round (if idx = 0 then 5_000_000 else 0)
      done;
      for _ = 1 to rounds_balanced do
        round 0
      done
    in
    let threads =
      List.init workers (fun i -> Cthread.fork ~proc:(1 + (i mod 6)) (body i))
    in
    Cthread.join_all threads
  in
  let run_one (label, make) =
    let sim = Sched.create cfg in
    let barrier_adaptations, final_spin_ns =
      Sched.run sim (fun () ->
          let await, finish = make () in
          drive ~await;
          finish ())
    in
    { barrier_impl = label; total_ns = Sched.final_time sim; barrier_adaptations; final_spin_ns }
  in
  let adaptive_metrics b () =
    ( Adaptive_core.Adaptive.adaptations (Adaptive_barrier.loop b),
      Adaptive_barrier.spin_budget_ns b )
  in
  Engine.Runner.map ?domains run_one
    [
      ( "fixed always-block",
        fun () ->
          let b = Barrier.create ~node:0 workers in
          ((fun () -> Barrier.await b), fun () -> (0, 0)) );
      ( "fixed always-spin",
        fun () ->
          (* An adaptive barrier frozen open: sampling disabled, spin
             budget pinned above any skew. *)
          let b =
            Adaptive_barrier.create ~node:0 ~name:"fixed-spin-barrier" ~period:max_int
              workers
          in
          Adaptive_core.Attribute.set (Adaptive_barrier.spin_attr b) 10_000_000;
          ((fun () -> Adaptive_barrier.await b), adaptive_metrics b) );
      ( "adaptive",
        fun () ->
          (* Thresholds bracket this machine's measured spreads: ~1.9 ms
             between blocked balanced arrivals (the resume cascade of 11
             sleepers, two per processor), ~4.4 ms when the straggler
             skews. The budget cap must exceed the blocked-mode spread
             or spinners can never bridge the block-to-spin transition. *)
          let b =
            Adaptive_barrier.create ~node:0 ~name:"ablation-barrier"
              ~spin_if_under:2_800_000 ~block_if_over:3_600_000 ~max_spin_ns:4_915_200
              workers
          in
          ((fun () -> Adaptive_barrier.await b), adaptive_metrics b) );
    ]

type advisory_row = {
  advisory_lock : string;
  total_ns : int;
  blocks : int;
  spin_probes : int;
  mean_wait_advisory_us : float;
}

(* Section 2's claim that "a speculative or advisory lock performs well
   for variable length critical sections": each critical section is
   randomly short (spin is right) or long (sleeping is right); only the
   owner knows which, and the advisory lock lets it tell the waiters. *)
let advisory ?domains () =
  let cfg = eight_procs in
  let short_ns = 8_000 and long_ns = 8_000_000 in
  let run_one (label, kind) =
    let sim = Sched.create cfg in
    let lk =
      Sched.run sim (fun () ->
          let lk = Locks.Lock.create ~home:0 kind in
          let body i () =
            Cthread.work (i * 2_000);
            for _ = 1 to 18 do
              (* One in six sections is long. *)
              let long = Cthread.random 6 = 0 in
              Locks.Lock_core.lock lk;
              (match kind with
              | Locks.Lock.Advisory ->
                Locks.Lock_core.advise lk
                  (Some
                     (if long then Locks.Lock_core.Advise_sleep
                      else Locks.Lock_core.Advise_spin))
              | _ -> ());
              Cthread.work (if long then long_ns else short_ns);
              Locks.Lock_core.unlock lk;
              Cthread.work 20_000
            done
          in
          (* Two workers per processor: spinning through a long section
             starves the co-located holder. *)
          let threads =
            List.init 12 (fun i -> Cthread.fork ~proc:(1 + (i mod 6)) (body i))
          in
          Cthread.join_all threads;
          lk)
    in
    let s = Locks.Lock_core.stats lk in
    {
      advisory_lock = label;
      total_ns = Sched.final_time sim;
      blocks = Locks.Lock_stats.blocks s;
      spin_probes = Locks.Lock_stats.spin_probes s;
      mean_wait_advisory_us = Locks.Lock_stats.mean_wait_ns s /. 1000.0;
    }
  in
  Engine.Runner.map ?domains run_one
    [
      ("pure spin", Locks.Lock.Spin);
      ("pure blocking", Locks.Lock.Blocking);
      ("combined(10)", Locks.Lock.Combined 10);
      ("advisory", Locks.Lock.Advisory);
    ]

type switch_row = {
  sw_point : string;
  sw_variant : string;
  sw_total_ns : int;
  sw_mean_wait_us : float;
  sw_blocks : int;
  sw_spin_probes : int;
  sw_swaps : int;
  sw_final_impl : string;
}

(* The implementation-as-attribute ablation (Lock_core's registered
   implementations): five contention regimes, each run under the three
   pinned implementations and under the adaptive ladder. The regimes are chosen so no pinned
   implementation wins everywhere — plain TAS when the lock is mostly
   free, the MCS queue when waiters pile up (its probes spin on
   locally-homed flags instead of hammering the lock's home module),
   blocking when ownership spans dwarf the deschedule round trip. *)
let switch_points =
  [
    (* label, workers, processors used, iterations, cs_ns, think_ns.
       The long-hold point oversubscribes its processors (two workers
       each): a spinning waiter then starves the co-located holder —
       spin gaps are busy [work], not [delay] — which is exactly when
       descheduling pays for itself. *)
    ("uncontended", 2, 7, 40, 4_000, 60_000);
    ("light", 3, 7, 40, 8_000, 20_000);
    ("moderate", 5, 7, 30, 15_000, 8_000);
    ("queued", 7, 7, 30, 25_000, 2_000);
    ("long-hold", 8, 4, 16, 700_000, 10_000);
  ]

let switch_one ?machine ~point ~workers ~processors:procs ~iterations:iters ~cs_ns
    ~think_ns ~variant ~fixed () =
  let module L = Locks.Lock_core in
  let cfg = Option.value machine ~default:eight_procs in
  let sim = Sched.create { cfg with Config.processors = max cfg.Config.processors 8 } in
  let lk =
    Sched.run sim (fun () ->
        let impl = match fixed with Some i -> L.Fixed i | None -> L.Ladder in
        let lk = L.create ~name:"ablation-switch" ~impl ~home:0 () in
        let body i () =
          Cthread.work (i * 3_000);
          for _ = 1 to iters do
            L.lock lk;
            Cthread.work cs_ns;
            L.unlock lk;
            Cthread.work think_ns
          done
        in
        let ts = List.init workers (fun i -> Cthread.fork ~proc:(1 + (i mod procs)) (body i)) in
        Cthread.join_all ts;
        lk)
  in
  let st = L.stats lk in
  {
    sw_point = point;
    sw_variant = variant;
    sw_total_ns = Sched.final_time sim;
    sw_mean_wait_us = Locks.Lock_stats.mean_wait_ns st /. 1000.0;
    sw_blocks = Locks.Lock_stats.blocks st;
    sw_spin_probes = Locks.Lock_stats.spin_probes st;
    sw_swaps = L.epoch lk;
    sw_final_impl = L.impl_label (L.current_impl lk);
  }

let switch_variants =
  List.map
    (fun fixed ->
      ( Option.fold fixed ~none:"adaptive" ~some:(fun i ->
            "fixed " ^ Locks.Lock_core.impl_label i),
        fixed ))
    Locks.Lock_core.[ Some Tas; Some Mcs; Some Blocking; None ]

let switch_locks ?domains () =
  let grid =
    List.concat_map (fun p -> List.map (fun v -> (p, v)) switch_variants) switch_points
  in
  Engine.Runner.map ?domains
    (fun ((point, workers, procs, iters, cs_ns, think_ns), (variant, fixed)) ->
      switch_one ~point ~workers ~processors:procs ~iterations:iters ~cs_ns
        ~think_ns ~variant ~fixed ())
    grid

let switch_gate rows =
  let slack_pct = 5.0 in
  let points = List.map (fun (p, _, _, _, _, _) -> p) switch_points in
  let extremes = [ List.hd points; List.nth points (List.length points - 1) ] in
  List.concat_map
    (fun point ->
      let at = List.filter (fun r -> r.sw_point = point) rows in
      match List.partition (fun r -> r.sw_variant = "adaptive") at with
      | [ adaptive ], (_ :: _ as fixed) ->
        let worst =
          List.fold_left (fun acc r -> max acc r.sw_total_ns) min_int fixed
        in
        let best =
          List.fold_left (fun acc r -> min acc r.sw_total_ns) max_int fixed
        in
        let beats_worst =
          (* Ties are fine: the adaptive lock must never be *worse*
             than the worst pinned variant, not strictly faster. *)
          if adaptive.sw_total_ns <= worst then []
          else
            [
              Printf.sprintf
                "%s: adaptive (%d ns) is worse than the worst pinned variant (%d ns)"
                point adaptive.sw_total_ns worst;
            ]
        in
        let near_best =
          if not (List.mem point extremes) then []
          else
            let limit =
              int_of_float (float_of_int best *. (1.0 +. (slack_pct /. 100.0)))
            in
            if adaptive.sw_total_ns <= limit then []
            else
              [
                Printf.sprintf
                  "%s: adaptive (%d ns) is more than %.1f%% above the best pinned \
                   variant (%d ns)"
                  point adaptive.sw_total_ns slack_pct best;
              ]
        in
        beats_worst @ near_best
      | _ -> [ Printf.sprintf "%s: incomplete variant grid" point ])
    points
