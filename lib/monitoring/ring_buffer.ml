open Butterfly

type 'a t = {
  slots : 'a option array;  (* host payloads; cursors are simulated *)
  capacity : int;
  head : Memory.addr;  (* next unread index *)
  tail : Memory.addr;  (* next free index *)
  data : Memory.addr;  (* representative data word: publishing writes it *)
  mutable drop_count : int;
}

let create ~home () =
  let capacity = 256 in
  let words = Ops.alloc ~node:home 3 in
  Ops.mark_sync_words words;
  {
    slots = Array.make capacity None;
    capacity;
    head = words.(0);
    tail = words.(1);
    data = words.(2);
    drop_count = 0;
  }

let publish t v =
  let idx = Ops.fetch_and_add t.tail 1 in
  (* Host slot assignment is atomic w.r.t. the simulation (it happens
     between effects), so the consumer can never observe a claimed but
     unwritten slot. *)
  if t.slots.(idx mod t.capacity) <> None then t.drop_count <- t.drop_count + 1;
  t.slots.(idx mod t.capacity) <- Some v;
  (* The record payload itself travels to the buffer's home node. *)
  Ops.write t.data idx

let consume t =
  let head = Ops.read t.head in
  let tail = Ops.read t.tail in
  if head >= tail then None
  else begin
    match t.slots.(head mod t.capacity) with
    | None ->
      (* Overwritten before we got here: skip it. *)
      Ops.write t.head (head + 1);
      None
    | Some v ->
      t.slots.(head mod t.capacity) <- None;
      Ops.write t.head (head + 1);
      Some v
  end

let dropped t = t.drop_count
