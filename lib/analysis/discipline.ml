open Butterfly

type held = { h_key : Trace.key; h_name : string; h_spin : bool }

(* Lock-usage lint over the merged stream: tracks the per-thread stack
   of held locks from the acquire/release annotations and flags
   blocking while holding a spin-mode lock, releases without a
   matching acquire, and locks still held at thread exit. *)
let run ~names trace =
  let held = Trace.Held.create (fun e -> e.h_key) in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let holding = Trace.Held.get held in
  Trace.iteri_side
    (fun _ -> function
      | Trace.Annot
          { annotation = Ops.A_lock_acquire { lock; lock_name; spin_wait }; annot_tid; _ }
        ->
        Trace.Held.push held annot_tid
          { h_key = Trace.key lock; h_name = lock_name; h_spin = spin_wait }
      | Trace.Annot
          { annotation = Ops.A_lock_release { lock; lock_name }; annot_tid; annot_time; _ }
        ->
        if Trace.Held.pop held annot_tid (Trace.key lock) = None then
          add
            (Diag.make ~category:Diag.Discipline ~rule:"unlock-not-held" ~time:annot_time
               ~thread:(names annot_tid)
               (Printf.sprintf "unlocked %s without holding it (double unlock or \
                                unlock of someone else's lock)"
                  lock_name))
      | Trace.Event { kind = Sched.Ev_block; tid; time; _ } -> (
        (* The thread really slept (token-absorbing blocks emit
           Ev_token_use instead): any spin-mode lock it holds keeps
           every waiter burning its processor until the sleeper is
           rescheduled. *)
        match List.filter (fun e -> e.h_spin) (holding tid) with
        | [] -> ()
        | spins ->
          List.iter
            (fun e ->
              add
                (Diag.make ~category:Diag.Discipline ~rule:"block-holding-spin-lock"
                   ~time ~thread:(names tid)
                   (Printf.sprintf
                      "blocked while holding spin-mode lock %s; its waiters spin for \
                       the whole sleep"
                      e.h_name)))
            spins)
      | Trace.Event { kind = Sched.Ev_finish; tid; time; _ } ->
        List.iter
          (fun e ->
            add
              (Diag.make ~category:Diag.Discipline ~rule:"lock-held-at-exit" ~time
                 ~thread:(names tid)
                 (Printf.sprintf "exited still holding lock %s" e.h_name)))
          (holding tid);
        Trace.Held.drop held tid
      | Trace.Annot _ | Trace.Event _ | Trace.Access _ -> ())
    trace;
  List.rev !diags
