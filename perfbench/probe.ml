(* Steady-state cost per operation of one layer, regressed on N.

   A probe body runs N operations of a layer's public function on
   state prepared once. Timing one call per N mostly measures set-up
   at small N; fitting time = a + b*N over several N and repetitions
   puts the set-up in the intercept and the per-operation cost in the
   slope, and r^2 says how well the line explains the samples. Sizes
   are visited in interleaved order, so host drift spreads over every
   N instead of tilting the line. *)

type fit = { ns_per_op : float; r2 : float }

let ols points =
  let n = float_of_int (List.length points) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let mx = sx /. n and my = sy /. n in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.)) 0. points in
  let sxy = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. points in
  let syy = List.fold_left (fun a (_, y) -> a +. ((y -. my) ** 2.)) 0. points in
  let slope = sxy /. sxx in
  let r2 = if syy = 0. then 1. else sxy *. sxy /. (sxx *. syy) in
  (slope, r2)

(* The line is fitted to the median time of each N, so one sample
   stretched by a host hiccup does not tilt it. *)
let sizes = [ 16_384; 32_768; 65_536; 131_072; 262_144 ]
let reps = 9

let regress body =
  body (List.hd sizes);
  let samples = Hashtbl.create 8 in
  for _ = 1 to reps do
    List.iter
      (fun n ->
        let t0 = Unix.gettimeofday () in
        body n;
        Hashtbl.add samples n ((Unix.gettimeofday () -. t0) *. 1e9))
      sizes
  done;
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let ns_per_op, r2 =
    ols (List.map (fun n -> (float_of_int n, median (Hashtbl.find_all samples n))) sizes)
  in
  { ns_per_op; r2 }

(* Engine.Pqueue as the simulator's per-processor run queue
   (Butterfly.Sched's runq): each operation one dispatch round trip, pop
   the earliest thread and re-queue it later. The depth is the Figure 1
   sweep's threads per processor, the spec the paper workload
   dispatches, not a measured queue length. TSP's node queues are a
   different use of Pqueue, deeper and keyed by bound; this probe does
   not stand for them. *)
let pqueue () =
  let depth = Workloads.Csweep.default.Workloads.Csweep.threads_per_proc in
  let q = Engine.Pqueue.create ~dummy:0 () in
  for k = 1 to depth do
    Engine.Pqueue.add q ~key:k k
  done;
  regress (fun n ->
      for _ = 1 to n do
        let k = Engine.Pqueue.pop_min_value_exn q in
        let k' = k + 1 + ((k * 7919) land 15) in
        Engine.Pqueue.add q ~key:k' k'
      done)

(* Butterfly.Memory.try_reserve as the soak's batched charging path
   uses it: one thread sweeping a 1024-word array on a 4-processor
   machine, write / read / fetch-and-add passes, each access booked
   after the previous one completes. *)
let memory_try_reserve () =
  let cfg = { Butterfly.Config.default with Butterfly.Config.processors = 4 } in
  let mem = Butterfly.Memory.create cfg in
  let words = Butterfly.Memory.alloc mem ~node:0 1_024 in
  let kinds =
    Butterfly.Memory.[| Write_access; Read_access; Atomic_access |]
  in
  let clock = ref 0 in
  regress (fun n ->
      for i = 0 to n - 1 do
        let d =
          Butterfly.Memory.try_reserve mem cfg ~from_node:0
            words.(i land 1_023)
            kinds.((i lsr 10) mod 3)
            ~start:!clock ~budget:max_int
        in
        clock := !clock + d
      done)
