open Butterfly

exception Immutable_attribute of string
exception Not_owner of string

(* The ownership word holds [tid + 1] of the owning thread, 0 when
   free, so that thread 0 can own attributes too. *)
type 'a t = {
  attr_name : string;
  mutable value : 'a;
  mutable is_mutable : bool;
  owner_word : Memory.addr;
}

let make_at ~name ~node v =
  let owner_word = Ops.alloc1 ~node () in
  Ops.mark_sync_words [| owner_word |];
  { attr_name = name; value = v; is_mutable = true; owner_word }

let get t = t.value

(* Ownership violations name the holder, not just the attribute:
   "spin-time (held by thread 3, caller thread 7)". *)
let not_owner_msg t ~holder =
  let me = Ops.self () in
  match holder with
  | 0 -> Printf.sprintf "%s (not owned, caller thread %d)" t.attr_name me
  | h -> Printf.sprintf "%s (held by thread %d, caller thread %d)" t.attr_name (h - 1) me

let set t v =
  if not t.is_mutable then raise (Immutable_attribute t.attr_name);
  let owner = Ops.read t.owner_word in
  if owner <> 0 && owner <> Ops.self () + 1 then
    raise (Not_owner (not_owner_msg t ~holder:owner));
  t.value <- v

let mutability t = t.is_mutable
let set_mutability t b = t.is_mutable <- b

let acquire t =
  let me = Ops.self () + 1 in
  Ops.compare_and_swap t.owner_word ~expected:0 ~desired:me
  || Ops.read t.owner_word = me

let release t =
  let me = Ops.self () + 1 in
  if not (Ops.compare_and_swap t.owner_word ~expected:me ~desired:0) then
    raise (Not_owner (not_owner_msg t ~holder:(Ops.read t.owner_word)))
