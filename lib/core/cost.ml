type t = { reads : int; writes : int; instrs : int }

let zero = { reads = 0; writes = 0; instrs = 0 }
let make ?(reads = 0) ?(writes = 0) ?(instrs = 0) () = { reads; writes; instrs }
let reads_writes reads writes = { reads; writes; instrs = 0 }

let ( + ) a b =
  { reads = a.reads + b.reads; writes = a.writes + b.writes; instrs = a.instrs + b.instrs }

let charge ~scratch t =
  for _ = 1 to t.reads do
    ignore (Butterfly.Ops.read scratch)
  done;
  for _ = 1 to t.writes do
    Butterfly.Ops.write scratch 0
  done;
  if t.instrs > 0 then Butterfly.Ops.work_instrs t.instrs
