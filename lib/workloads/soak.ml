open Butterfly

type spec = {
  processors : int;
  array_words : int;
  rounds : int;
  contended_iters : int;
}

type result = { spec : spec; final_ns : int; events : int; checksum : int }

let default = { processors = 4; array_words = 64; rounds = 32; contended_iters = 8 }

let with_rounds rounds =
  { default with array_words = 1_024; rounds; contended_iters = 4 }

let scenario spec ~acc () =
  let words = Ops.alloc ~node:0 spec.array_words in
  let lk = Cthreads.Spin.create ~node:0 () in
  let shared = Ops.alloc1 ~node:0 () in
  for round = 1 to spec.rounds do
    (* Phase A: a single runnable thread sweeping the array — write,
       read-and-compute, read-modify-write and pure-compute passes,
       echoing the op mix of the paper workloads (which interleave
       instruction charges with their memory traffic). With every
       other processor idle this is exactly the traffic the batched
       charging path accelerates. *)
    for i = 0 to spec.array_words - 1 do
      Ops.write words.(i) (i + round)
    done;
    for i = 0 to spec.array_words - 1 do
      acc := !acc + Ops.read words.(i);
      Ops.work 150
    done;
    for i = 0 to spec.array_words - 1 do
      acc := !acc + Ops.fetch_and_add words.(i) 1
    done;
    for _ = 1 to spec.array_words do
      Ops.work 150
    done;
    Ops.work 5_000;
    (* Phase B: two contenders on a spin lock — multiple runnable
       threads, so dispatch takes the general path and the spin
       iterations exercise the fused probe effects. *)
    if spec.contended_iters > 0 && spec.processors >= 3 then begin
      let contender proc =
        Cthreads.Cthread.fork ~proc (fun () ->
            for _ = 1 to spec.contended_iters do
              Cthreads.Spin.lock lk;
              ignore (Ops.fetch_and_add shared 1);
              Ops.work 2_000;
              Cthreads.Spin.unlock lk
            done)
      in
      let a = contender 1 in
      let b = contender 2 in
      Cthreads.Cthread.join a;
      Cthreads.Cthread.join b
    end
  done;
  acc := !acc + Ops.read shared

let run spec =
  let sim = Sched.create { Config.default with Config.processors = spec.processors } in
  let acc = ref 0 in
  Sched.run sim (scenario spec ~acc);
  {
    spec;
    final_ns = Sched.final_time sim;
    events = Sched.events_executed sim;
    checksum = !acc;
  }
