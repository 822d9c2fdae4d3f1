open Butterfly

type 'a t = {
  mutable thread : Cthreads.Cthread.t;
  stop_flag : bool ref;
  mutable max_lag : int;
}

let start_timestamped ?(name = "monitor-thread") ?(poll_interval_ns = 100_000) ~proc
    ~ring ~deliver () =
  let stop_flag = ref false in
  let t = { thread = Cthreads.Cthread.of_id 0; stop_flag; max_lag = 0 } in
  let rec drain () =
    match Ring_buffer.consume ring with
    | Some (published_at, value) ->
      (* The general-purpose monitor's per-record processing cost. *)
      Ops.work_instrs Locks.Lock_costs.monitor_sample_instrs;
      let lag = Ops.now () - published_at in
      if lag > t.max_lag then t.max_lag <- lag;
      deliver value;
      drain ()
    | None -> ()
  in
  let body () =
    while not !stop_flag do
      drain ();
      Ops.delay poll_interval_ns
    done;
    drain ()
  in
  t.thread <- Cthreads.Cthread.fork ~name ~proc body;
  t

let stop t =
  t.stop_flag := true;
  Cthreads.Cthread.join t.thread

let max_lag_ns t = t.max_lag
