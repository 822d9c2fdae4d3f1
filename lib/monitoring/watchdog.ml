open Butterfly

type t = {
  mutable thread : Cthreads.Cthread.t;
  stop_flag : bool ref;
  mutable polls : int;
  mutable fired : bool;
}

let poll_interval_ns = 200_000
let stale_limit = 5

(* Progress as seen from outside the watchdog itself: cpu consumed by
   every other thread, memory traffic, and the live-thread count. Any
   of these moving between two polls means the machine is not stalled. *)
let fingerprint sched ~self_tid =
  let cpu =
    List.fold_left
      (fun acc (tid, _name, cpu_ns) -> if tid = self_tid then acc else acc + cpu_ns)
      0 (Sched.thread_report sched)
  in
  (cpu, Memory.total_accesses (Sched.memory sched), Sched.live_threads sched)

(* Threads queued for a future dispatch. The poll body runs while the
   watchdog itself is dispatched (popped from its queue), so every
   queued thread counted here is someone else's pending progress: a
   long work slice advances a sibling's clock far ahead in one
   dispatch, and until the watchdog's own virtual clock catches up the
   machine looks frozen — but the sibling is still queued. Only a
   machine with nothing queued anywhere can be stalled. *)
let runnable_others sched =
  let n = (Sched.config sched).Butterfly.Config.processors in
  let total = ref 0 in
  for p = 0 to n - 1 do
    total := !total + Sched.runq_length sched p
  done;
  !total

let start ~sched () =
  let stop_flag = ref false in
  let t = { thread = Cthreads.Cthread.of_id 0; stop_flag; polls = 0; fired = false } in
  let body () =
    let self_tid = Cthreads.Cthread.id (Cthreads.Cthread.self ()) in
    let last = ref (fingerprint sched ~self_tid) in
    let stale = ref 0 in
    let stalled = ref false in
    while not (!stop_flag || !stalled) do
      Cthreads.Cthread.delay poll_interval_ns;
      t.polls <- t.polls + 1;
      let now = fingerprint sched ~self_tid in
      if now = !last && runnable_others sched = 0 then begin
        incr stale;
        if !stale >= stale_limit then begin
          t.fired <- true;
          stalled := true;
          Sched.request_abort sched
            (Printf.sprintf
               "watchdog: no thread progress across %d polls (%d ns of virtual time, \
                stalled since t=%d)"
               stale_limit (stale_limit * poll_interval_ns)
               (Ops.now () - (stale_limit * poll_interval_ns)))
        end
      end
      else begin
        stale := 0;
        last := now
      end
    done
  in
  t.thread <- Cthreads.Cthread.fork ~name:"watchdog" ~proc:0 body;
  t

let stop t =
  t.stop_flag := true;
  Cthreads.Cthread.join t.thread

let polls t = t.polls
let fired t = t.fired
