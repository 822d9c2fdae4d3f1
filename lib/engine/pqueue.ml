type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy () =
  let capacity = 64 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
    dummy;
  }

let size q = q.size
let is_empty q = q.size = 0

(* (key, seq) lexicographic order: smaller key wins; on equal keys the
   earlier insertion (smaller seq) wins, giving FIFO stability. *)
let less q i j =
  q.keys.(i) < q.keys.(j) || (q.keys.(i) = q.keys.(j) && q.seqs.(i) < q.seqs.(j))

let swap q i j =
  let k = q.keys.(i) in
  q.keys.(i) <- q.keys.(j);
  q.keys.(j) <- k;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let v = q.vals.(i) in
  q.vals.(i) <- q.vals.(j);
  q.vals.(j) <- v

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 in
  if left < q.size then begin
    let right = left + 1 in
    let smallest = if right < q.size && less q right left then right else left in
    if less q smallest i then begin
      swap q i smallest;
      sift_down q smallest
    end
  end

let grow q =
  let capacity = Array.length q.keys in
  let capacity' = capacity * 2 in
  let keys = Array.make capacity' 0 in
  let seqs = Array.make capacity' 0 in
  let vals = Array.make capacity' q.dummy in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.keys <- keys;
  q.seqs <- seqs;
  q.vals <- vals

let add q ~key v =
  if q.size = Array.length q.keys then grow q;
  let i = q.size in
  q.keys.(i) <- key;
  q.seqs.(i) <- q.next_seq;
  q.vals.(i) <- v;
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  sift_up q i

(* Allocation-free peek for per-iteration polling (the scheduler's
   "is the next timer due?" check): [max_int] stands for "empty", so
   the caller's comparison against a real virtual time needs no
   branch on an option. *)
let peek_min_key q = if q.size = 0 then max_int else q.keys.(0)

(* Remove the root. The freed slot is overwritten with [dummy] so the
   queue never retains a reference to a popped value. *)
let remove_min q =
  let v = q.vals.(0) in
  let last = q.size - 1 in
  swap q 0 last;
  q.vals.(last) <- q.dummy;
  q.size <- last;
  sift_down q 0;
  v

let pop_min q =
  if q.size = 0 then None
  else
    let key = q.keys.(0) in
    Some (key, remove_min q)

let pop_min_value_exn q =
  if q.size = 0 then invalid_arg "Pqueue.pop_min_value_exn: empty queue"
  else remove_min q

(* Remove an arbitrary entry: swap it with the last slot, shrink, then
   restore the heap property in whichever direction the transplanted
   entry violates it. O(n) scan + O(log n) repair — only used by the
   controlled scheduler's forced-dispatch path, never on the default
   hot path. *)
let remove q pred =
  let rec find i = if i >= q.size then -1 else if pred q.vals.(i) then i else find (i + 1) in
  let i = find 0 in
  if i < 0 then None
  else begin
    let v = q.vals.(i) in
    let last = q.size - 1 in
    swap q i last;
    q.vals.(last) <- q.dummy;
    q.size <- last;
    if i < last then begin
      sift_down q i;
      sift_up q i
    end;
    Some v
  end

let iter q f =
  for i = 0 to q.size - 1 do
    f q.keys.(i) q.vals.(i)
  done
