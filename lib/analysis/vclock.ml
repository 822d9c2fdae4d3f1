type t = { mutable comp : int array }

let create () = { comp = [||] }

let get t i = if i >= 0 && i < Array.length t.comp then t.comp.(i) else 0

(* The one growth rule: a clock grows to exactly the [n] components an
   update needs, never more. Components past the end read 0, so the
   length changes no comparison; keeping it exact bounds every clock
   and snapshot by the highest tid heard of plus one, where doubling
   lets two clocks that absorb each other's snapshots grow without
   bound. *)
let grow t n =
  let len = Array.length t.comp in
  if n > len then begin
    let comp = Array.make n 0 in
    Array.blit t.comp 0 comp 0 len;
    t.comp <- comp
  end

let set t i v =
  grow t (i + 1);
  t.comp.(i) <- v

let incr t i = set t i (get t i + 1)

let snapshot t = Array.copy t.comp

let join t snap =
  grow t (Array.length snap);
  let comp = t.comp in
  for i = 0 to Array.length snap - 1 do
    if snap.(i) > comp.(i) then comp.(i) <- snap.(i)
  done

let join_clock t u = join t u.comp
