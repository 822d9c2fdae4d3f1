(* Cross-cutting property tests: randomized simulated programs and
   invariants of the later utility modules. *)

open Butterfly

let check_bool = Alcotest.(check bool)

(* A random but well-formed simulated program: forks a few workers with
   random pinning, each performing a random mix of work, delays, memory
   traffic and lock use; everything must terminate with a monotone
   clock and intact mutual exclusion. *)
let random_program_runs (seed, nworkers, use_quantum) =
  let cfg =
    {
      Config.default with
      Config.processors = 5;
      seed;
      quantum_ns = (if use_quantum then Some 50_000 else None);
    }
  in
  let sim = Sched.create cfg in
  let violations = ref 0 and inside = ref 0 in
  Sched.run sim (fun () ->
      let rng_choice = Cthreads.Cthread.random in
      let lk = Locks.Lock.create ~home:0 (Locks.Lock.Combined 3) in
      let shared = Ops.alloc1 ~node:1 () in
      let worker i () =
        Cthreads.Cthread.work (1_000 * i);
        for _ = 1 to 10 do
          match rng_choice 5 with
          | 0 -> Cthreads.Cthread.work (1 + rng_choice 20_000)
          | 1 -> Cthreads.Cthread.delay (1 + rng_choice 20_000)
          | 2 -> ignore (Ops.fetch_and_add shared 1)
          | 3 -> Cthreads.Cthread.yield ()
          | _ ->
            Locks.Lock_core.lock lk;
            incr inside;
            if !inside > 1 then incr violations;
            Cthreads.Cthread.work (1 + rng_choice 10_000);
            decr inside;
            Locks.Lock_core.unlock lk
        done
      in
      let ts =
        List.init nworkers (fun i ->
            Cthreads.Cthread.fork ~proc:(1 + (i mod 4)) (worker i))
      in
      Cthreads.Cthread.join_all ts);
  !violations = 0 && Sched.final_time sim > 0

let prop_random_programs =
  QCheck.Test.make ~name:"random simulated programs run safely" ~count:25
    QCheck.(triple (int_bound 10_000) (int_range 2 6) bool)
    random_program_runs

let prop_random_programs_deterministic =
  QCheck.Test.make ~name:"random programs are deterministic" ~count:10
    QCheck.(pair (int_bound 10_000) (int_range 2 5))
    (fun (seed, nworkers) ->
      let once () =
        let cfg = { Config.default with Config.processors = 5; seed } in
        let sim = Sched.create cfg in
        Sched.run sim (fun () ->
            let lk = Locks.Lock.create ~home:0 Locks.Lock.adaptive_default in
            let worker i () =
              for _ = 1 to 8 do
                Locks.Lock_core.lock lk;
                Cthreads.Cthread.work (5_000 + (1_000 * i));
                Locks.Lock_core.unlock lk;
                Cthreads.Cthread.work 3_000
              done
            in
            let ts =
              List.init nworkers (fun i ->
                  Cthreads.Cthread.fork ~proc:(1 + (i mod 4)) (worker i))
            in
            Cthreads.Cthread.join_all ts);
        Sched.final_time sim
      in
      once () = once ())

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 1 5_000_000))
    (fun samples ->
      let h = Repro_stats.Histogram.create () in
      List.iter (Repro_stats.Histogram.add h) samples;
      Scanf.sscanf (Repro_stats.Histogram.summary h)
        "n=%_d mean=%_fus p50=%fus p90=%fus p99=%fus max=%fus"
        (fun p50 p90 p99 max -> p50 <= p90 && p90 <= p99 && p99 <= max))

let prop_histogram_count_total =
  QCheck.Test.make ~name:"histogram count/total track inputs" ~count:100
    QCheck.(list (int_range 0 1_000_000))
    (fun samples ->
      let h = Repro_stats.Histogram.create () in
      List.iter (Repro_stats.Histogram.add h) samples;
      match samples with
      | [] -> Repro_stats.Histogram.summary h = "no samples"
      | _ ->
        (* The summary prints the mean to 0.1 us. *)
        let mean_us =
          float_of_int (List.fold_left ( + ) 0 samples)
          /. float_of_int (List.length samples) /. 1000.0
        in
        Scanf.sscanf (Repro_stats.Histogram.summary h) "n=%d mean=%fus"
          (fun n mean -> n = List.length samples && Float.abs (mean -. mean_us) <= 0.051))

let prop_series_resample_bounds =
  QCheck.Test.make ~name:"series resample stays within value bounds" ~count:100
    QCheck.(pair (int_range 1 20) (list_of_size (Gen.int_range 2 100) (float_bound_inclusive 50.0)))
    (fun (buckets, values) ->
      let s = Engine.Series.create ~name:"s" () in
      List.iteri (fun i v -> Engine.Series.add s ~t:(i * 10) ~v) values;
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      Array.for_all
        (fun (_, v) -> v >= lo -. 1e-9 && v <= hi +. 1e-9)
        (Engine.Series.resample s ~buckets))

let test_mutex_under_quantum_stress () =
  (* Heavy mixed workload with an aggressive quantum: mutual exclusion
     must survive constant preemption. *)
  let cfg =
    { Config.default with Config.processors = 4; quantum_ns = Some 10_000; seed = 99 }
  in
  let sim = Sched.create cfg in
  let counter = ref 0 in
  Sched.run sim (fun () ->
      let lk = Locks.Lock.create ~home:0 Locks.Lock.adaptive_default in
      let worker () =
        for _ = 1 to 25 do
          Locks.Lock_core.lock lk;
          let v = !counter in
          Cthreads.Cthread.work 4_000;
          counter := v + 1;
          Locks.Lock_core.unlock lk
        done
      in
      let ts = List.init 8 (fun i -> Cthreads.Cthread.fork ~proc:(i mod 4) (worker)) in
      Cthreads.Cthread.join_all ts);
  Alcotest.(check int) "no lost updates under preemption" 200 !counter

let suite =
  [
    QCheck_alcotest.to_alcotest prop_random_programs;
    QCheck_alcotest.to_alcotest prop_random_programs_deterministic;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_histogram_count_total;
    QCheck_alcotest.to_alcotest prop_series_resample_bounds;
    Alcotest.test_case "mutex under preemption stress" `Quick test_mutex_under_quantum_stress;
  ]
