type kind = Fcfs | Priority | Handoff

let kind_name = function Fcfs -> "FCFS" | Priority -> "priority" | Handoff -> "handoff"

type waiter = { tid : int; prio : int; enqueued_at : int }

(* The queue is a host-side list kept in FIFO order (front first); the
   simulated cost of queue manipulation is charged by the lock
   implementations at operation granularity. Waiter counts are small,
   so linear scans are fine and keep the release policies obvious. *)
type t = { mutable queue : waiter list; mutable sched_kind : kind }

let create sched_kind = { queue = []; sched_kind }
let set_kind t k = t.sched_kind <- k
let register t w = t.queue <- t.queue @ [ w ]
let cancel t tid = t.queue <- List.filter (fun w -> w.tid <> tid) t.queue
let waiting t = List.length t.queue
let is_empty t = t.queue = []

let take t pred =
  let rec loop acc = function
    | [] -> None
    | w :: rest ->
      if pred w then begin
        t.queue <- List.rev_append acc rest;
        Some w
      end
      else loop (w :: acc) rest
  in
  loop [] t.queue

let take_front t =
  match t.queue with
  | [] -> None
  | w :: rest ->
    t.queue <- rest;
    Some w

let take_highest_priority t =
  match t.queue with
  | [] -> None
  | first :: _ ->
    let best =
      List.fold_left (fun best w -> if w.prio > best.prio then w else best) first t.queue
    in
    take t (fun w -> w.tid = best.tid)

let release_next t ~successor =
  match t.sched_kind with
  | Fcfs -> take_front t
  | Priority -> take_highest_priority t
  | Handoff -> (
    match successor with
    | Some tid -> (
      match take t (fun w -> w.tid = tid) with
      | Some w -> Some w
      | None -> take_front t)
    | None -> take_front t)
