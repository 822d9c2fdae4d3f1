open Butterfly

type key = Trace.key

type witness = { w_thread : string; w_time : int; w_holding : string; w_acquiring : string }

(* Build the acquired-while-holding graph from the annotation stream:
   an edge H -> L for every acquisition of L by a thread holding H,
   keeping the first witness of each edge. *)
let edges ~names trace =
  let held : (key * string) Trace.Held.t = Trace.Held.create fst in
  let edges : (key * key, witness) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  (* edge keys, first-seen order *)
  let locknames : (key, string) Hashtbl.t = Hashtbl.create 64 in
  Trace.iteri_side
    (fun _ -> function
      | Trace.Annot
          { annotation = Ops.A_lock_request { lock; lock_name }; annot_tid; annot_time; _ }
        ->
        (* Edges come from the request, not the completed acquisition:
           in a real deadlock the acquisition never completes, yet the
           request is exactly the evidence the graph needs. *)
        let l = Trace.key lock in
        Hashtbl.replace locknames l lock_name;
        List.iter
          (fun (h, hname) ->
            if not (Hashtbl.mem edges (h, l)) then begin
              Hashtbl.replace edges (h, l)
                {
                  w_thread = names annot_tid;
                  w_time = annot_time;
                  w_holding = hname;
                  w_acquiring = lock_name;
                };
              order := (h, l) :: !order
            end)
          (Trace.Held.get held annot_tid)
      | Trace.Annot
          { annotation = Ops.A_lock_acquire { lock; lock_name; _ }; annot_tid; _ } ->
        let l = Trace.key lock in
        Hashtbl.replace locknames l lock_name;
        Trace.Held.push held annot_tid (l, lock_name)
      | Trace.Annot { annotation = Ops.A_lock_release { lock; _ }; annot_tid; _ } ->
        ignore (Trace.Held.pop held annot_tid (Trace.key lock) : (key * string) option)
      | Trace.Annot _ | Trace.Event _ | Trace.Access _ -> ())
    trace;
  (List.rev !order, edges, locknames)

(* Cycle detection over the (small) lock graph: for each edge u -> v,
   check whether v can reach u; the first such edge in first-seen
   order witnesses its cycle. Each strongly connected pair is reported
   once (the path is recomputed for the message). *)
let run ~names trace =
  let order, edges, locknames = edges ~names trace in
  let succs u =
    List.filter_map (fun (a, b) -> if a = u then Some b else None) order
  in
  let reaches src dst =
    let visited = Hashtbl.create 16 in
    let rec go u path =
      if u = dst then Some (List.rev (u :: path))
      else if Hashtbl.mem visited u then None
      else begin
        Hashtbl.replace visited u ();
        let rec first = function
          | [] -> None
          | v :: rest -> (
            match go v (u :: path) with Some p -> Some p | None -> first rest)
        in
        first (succs u)
      end
    in
    go src []
  in
  let reported = Hashtbl.create 16 in
  let lock_name k =
    match Hashtbl.find_opt locknames k with
    | Some n -> n
    | None -> Printf.sprintf "lock<%s>" (Trace.key_name k)
  in
  List.filter_map
    (fun (u, v) ->
      match reaches v u with
      | None -> None
      | Some path ->
        (* Canonical cycle identity: the sorted set of locks in it. *)
        let cycle_locks = List.sort_uniq compare (u :: path) in
        if Hashtbl.mem reported cycle_locks then None
        else begin
          Hashtbl.replace reported cycle_locks ();
          let w = Hashtbl.find edges (u, v) in
          let cycle_names = List.map lock_name (u :: path) in
          Some
            (Diag.make ~category:Diag.Lock_order ~rule:"lock-order-cycle" ~time:w.w_time
               ~thread:w.w_thread
               (Printf.sprintf
                  "locks %s are acquired in a cycle (deadlock potential); witness: %s \
                   acquired %s while holding %s at %d ns"
                  (String.concat " -> " cycle_names)
                  w.w_thread w.w_acquiring w.w_holding w.w_time))
        end)
    order
