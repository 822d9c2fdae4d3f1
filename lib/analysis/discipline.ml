open Butterfly

type key = int * int

let key a = (Memory.node_of a, Memory.index_of a)

type held = { h_key : key; h_name : string; h_spin : bool }

(* Lock-usage lint over the merged stream: tracks the per-thread stack
   of held locks from the acquire/release annotations and flags
   blocking while holding a spin-mode lock, releases without a
   matching acquire, and locks still held at thread exit. *)
let run ~names trace =
  let held : (int, held list) Hashtbl.t = Hashtbl.create 64 in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let holding tid = match Hashtbl.find_opt held tid with Some h -> h | None -> [] in
  Trace.iter_side
    (function
      | Trace.Annot
          { annotation = Ops.A_lock_acquire { lock; lock_name; spin_wait }; annot_tid; _ }
        ->
        Hashtbl.replace held annot_tid
          ({ h_key = key lock; h_name = lock_name; h_spin = spin_wait }
          :: holding annot_tid)
      | Trace.Annot
          { annotation = Ops.A_lock_release { lock; lock_name }; annot_tid; annot_time; _ }
        ->
        let k = key lock in
        let h = holding annot_tid in
        if List.exists (fun e -> e.h_key = k) h then begin
          let rec remove = function
            | [] -> []
            | e :: rest -> if e.h_key = k then rest else e :: remove rest
          in
          Hashtbl.replace held annot_tid (remove h)
        end
        else
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
        Hashtbl.remove held tid
      | Trace.Annot _ | Trace.Event _ | Trace.Access _ -> ())
    trace;
  List.rev !diags
