(* An address is an immediate int — module number in the high bits,
   word index in the low 24 — so address arrays are flat int arrays
   and no access chases a pointer to find its target. The encoding is
   private to this module ([addr] is abstract in the interface). *)
type addr = int

let index_bits = 24
let index_mask = (1 lsl index_bits) - 1
let[@inline] mk_addr node index = (node lsl index_bits) lor index

type bank = {
  mutable words : int array;
  mutable used : int;
  mutable busy : int;  (* module occupied until this virtual time *)
  mutable degrade : int;  (* latency multiplier; 1 = healthy *)
}

type t = {
  banks : bank array;
  mutable remote : int;
  mutable total : int;
}

let[@inline] node_of a = a lsr index_bits
let[@inline] index_of a = a land index_mask

let create (cfg : Config.t) =
  let bank _ = { words = Array.make 256 0; used = 0; busy = 0; degrade = 1 } in
  { banks = Array.init cfg.processors bank; remote = 0; total = 0 }

let check_node t node =
  if node < 0 || node >= Array.length t.banks then
    invalid_arg (Printf.sprintf "Memory: bad node %d" node)

let alloc t ~node n =
  check_node t node;
  if n <= 0 then invalid_arg "Memory.alloc: need a positive word count";
  let bank = t.banks.(node) in
  let needed = bank.used + n in
  if needed > index_mask then invalid_arg "Memory.alloc: module full";
  if needed > Array.length bank.words then begin
    let capacity = Int.max needed (Array.length bank.words * 2) in
    let words = Array.make capacity 0 in
    Array.blit bank.words 0 words 0 bank.used;
    bank.words <- words
  end;
  let base = bank.used in
  bank.used <- needed;
  Array.init n (fun i -> mk_addr node (base + i))

let bank_exn t a =
  let bank = t.banks.(node_of a) in
  if index_of a >= bank.used then
    invalid_arg
      (Printf.sprintf "Memory: unallocated address %d:%d" (node_of a) (index_of a));
  bank

let read t a = (bank_exn t a).words.(index_of a)
let write t a v = (bank_exn t a).words.(index_of a) <- v

let fetch_and_or t a v =
  let bank = bank_exn t a in
  let i = index_of a in
  let prev = bank.words.(i) in
  bank.words.(i) <- prev lor v;
  prev

let fetch_and_add t a v =
  let bank = bank_exn t a in
  let i = index_of a in
  let prev = bank.words.(i) in
  bank.words.(i) <- prev + v;
  prev

let swap t a v =
  let bank = bank_exn t a in
  let i = index_of a in
  let prev = bank.words.(i) in
  bank.words.(i) <- v;
  prev

let compare_and_swap t a ~expected ~desired =
  let bank = bank_exn t a in
  let i = index_of a in
  if bank.words.(i) = expected then begin
    bank.words.(i) <- desired;
    true
  end
  else false

type access = Read_access | Write_access | Atomic_access

let latency (cfg : Config.t) ~from_node a access =
  let local = from_node = node_of a in
  match access with
  | Read_access -> if local then cfg.local_read_ns else cfg.remote_read_ns
  | Write_access -> if local then cfg.local_write_ns else cfg.remote_write_ns
  | Atomic_access ->
    (* A read-modify-write occupies the module for a read plus a write,
       plus the interlock overhead. *)
    if local then cfg.local_read_ns + cfg.local_write_ns + cfg.atomic_extra_ns
    else cfg.remote_read_ns + cfg.local_write_ns + cfg.atomic_extra_ns

let reserve t (cfg : Config.t) ~from_node a access ~start =
  let _ = bank_exn t a in
  t.total <- t.total + 1;
  if from_node <> node_of a then t.remote <- t.remote + 1;
  (* Fault injection: a degraded module multiplies both the wire
     latency and (under contention) its service occupancy. With the
     default factor of 1 the arithmetic below is exactly the healthy
     path, so fault-free runs are byte-identical. *)
  let degrade = t.banks.(node_of a).degrade in
  let wire = degrade * latency cfg ~from_node a access in
  if not cfg.contention then start + wire
  else begin
    let bank = t.banks.(node_of a) in
    let grant = Int.max start bank.busy in
    let service =
      match access with
      | Atomic_access -> 2 * cfg.module_service_ns
      | Read_access | Write_access -> cfg.module_service_ns
    in
    bank.busy <- grant + (degrade * service);
    grant + wire
  end

(* The fast path's single-pass access: validity check, the duration
   the access would take, and its booking, in one bank lookup. The
   validity check comes first because an invalid access must fall back
   to the effect so the error surfaces as [bank_exn]'s. Once booked,
   the arithmetic is exactly [reserve]'s; it must stay so. [node_of]
   and [index_of] cannot be negative by construction. *)
let try_reserve t (cfg : Config.t) ~from_node a access ~start ~budget =
  let node = node_of a in
  if node >= Array.length t.banks then -1
  else begin
    let bank = Array.unsafe_get t.banks node in
    if index_of a >= bank.used then -1
    else begin
      let local = from_node = node in
      let wire =
        bank.degrade
        *
        match access with
        | Read_access -> if local then cfg.local_read_ns else cfg.remote_read_ns
        | Write_access -> if local then cfg.local_write_ns else cfg.remote_write_ns
        | Atomic_access ->
          if local then cfg.local_read_ns + cfg.local_write_ns + cfg.atomic_extra_ns
          else cfg.remote_read_ns + cfg.local_write_ns + cfg.atomic_extra_ns
      in
      if not cfg.contention then begin
        if wire >= budget then -1
        else begin
          t.total <- t.total + 1;
          if not local then t.remote <- t.remote + 1;
          wire
        end
      end
      else begin
        let grant = Int.max start bank.busy in
        let ns = grant + wire - start in
        if ns >= budget then -1
        else begin
          t.total <- t.total + 1;
          if not local then t.remote <- t.remote + 1;
          let service =
            match access with
            | Atomic_access -> 2 * cfg.module_service_ns
            | Read_access | Write_access -> cfg.module_service_ns
          in
          bank.busy <- grant + (bank.degrade * service);
          ns
        end
      end
    end
  end

(* Value accessors for the fast path, valid ONLY immediately after a
   successful [try_reserve] on the same address (which proves
   [a.node]/[a.index] in range), so the checked [bank_exn] chain can be
   skipped. *)
let[@inline] unsafe_words t a = (Array.unsafe_get t.banks (node_of a)).words

let[@inline] fast_read t a = Array.unsafe_get (unsafe_words t a) (index_of a)
let[@inline] fast_write t a v = Array.unsafe_set (unsafe_words t a) (index_of a) v

let[@inline] fast_fetch_and_or t a v =
  let words = unsafe_words t a in
  let i = index_of a in
  let prev = Array.unsafe_get words i in
  Array.unsafe_set words i (prev lor v);
  prev

let[@inline] fast_fetch_and_add t a v =
  let words = unsafe_words t a in
  let i = index_of a in
  let prev = Array.unsafe_get words i in
  Array.unsafe_set words i (prev + v);
  prev

let[@inline] fast_swap t a v =
  let words = unsafe_words t a in
  let i = index_of a in
  let prev = Array.unsafe_get words i in
  Array.unsafe_set words i v;
  prev

let[@inline] fast_compare_and_swap t a ~expected ~desired =
  let words = unsafe_words t a in
  let i = index_of a in
  if Array.unsafe_get words i = expected then begin
    Array.unsafe_set words i desired;
    true
  end
  else false

let busy_until t ~node =
  check_node t node;
  t.banks.(node).busy

let set_degrade_factor t ~node factor =
  check_node t node;
  if factor < 1 then invalid_arg "Memory.set_degrade_factor: factor must be >= 1";
  t.banks.(node).degrade <- factor

let degrade_factor t ~node =
  check_node t node;
  t.banks.(node).degrade

let stall_module t ~node ~until_ns =
  check_node t node;
  let bank = t.banks.(node) in
  if until_ns > bank.busy then bank.busy <- until_ns

let words_used t ~node =
  check_node t node;
  t.banks.(node).used

let remote_accesses t = t.remote
let total_accesses t = t.total
