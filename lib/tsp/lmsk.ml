let inf = max_int / 4

(* A node's arrays are never written once it is built, so children
   share the ones they do not change. *)
type node = {
  k : int;  (* active rows (= active cols) *)
  m : int array;  (* reduced k x k submatrix, row-major; inf = forbidden *)
  rows : int array;  (* original city of each active row, ascending *)
  cols : int array;  (* original city of each active column, ascending *)
  node_bound : int;
  edges : (int * int) list;
  path_start : int array;  (* start city of the included path through c *)
  path_end : int array;
}

let bound t = t.node_bound
let edges t = t.edges

(* Subtract the minimum of the [k] entries [m.(start + (x * stride))]
   from the feasible ones; returns that minimum ([inf] when none is
   feasible). A row is [stride = 1], a column [stride = k]. *)
let reduce_line m ~k ~start ~stride =
  let mn = ref inf in
  for x = 0 to k - 1 do
    let v = m.(start + (x * stride)) in
    if v < !mn then mn := v
  done;
  if !mn > 0 && !mn < inf then
    for x = 0 to k - 1 do
      let idx = start + (x * stride) in
      if m.(idx) < inf then m.(idx) <- m.(idx) - !mn
    done;
  !mn

(* Reduce rows then columns in place; returns the reduction total or
   [None] when some row/column has no feasible entry. *)
let reduce k m =
  let rec go line total =
    if line = 2 * k then Some total
    else
      let r =
        if line < k then reduce_line m ~k ~start:(line * k) ~stride:1
        else reduce_line m ~k ~start:(line - k) ~stride:k
      in
      if r >= inf then None else go (line + 1) (total + r)
  in
  go 0 0

let root inst =
  let n = Instance.size inst in
  let m = Array.init (n * n) (fun idx -> Instance.cost inst (idx / n) (idx mod n)) in
  let reduction =
    match reduce n m with
    | Some r -> r
    | None -> invalid_arg "Lmsk.root: infeasible instance"
  in
  let ids = Array.init n Fun.id in
  {
    k = n;
    m;
    rows = ids;
    cols = ids;
    node_bound = reduction;
    edges = [];
    path_start = ids;
    path_end = ids;
  }

(* Maximum-penalty zero entry: the edge whose exclusion raises the
   bound the most; the first in row-major order on ties. A zero is its
   line's smallest entry, so the smallest of the others is the line's
   second-smallest (counting repeats): one pass finds both for every
   row and column. *)
let choose_branch_edge t =
  let k = t.k and m = t.m in
  let row1 = Array.make k inf and row2 = Array.make k inf in
  let col1 = Array.make k inf and col2 = Array.make k inf in
  let note lo hi x (v : int) =
    if v < lo.(x) then begin
      hi.(x) <- lo.(x);
      lo.(x) <- v
    end
    else if v < hi.(x) then hi.(x) <- v
  in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      let v = m.((i * k) + j) in
      note row1 row2 i v;
      note col1 col2 j v
    done
  done;
  let best = ref None in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if m.((i * k) + j) = 0 then begin
        let penalty = row2.(i) + col2.(j) in
        match !best with
        | Some (p, _, _) when p >= penalty -> ()
        | _ -> best := Some (penalty, i, j)
      end
    done
  done;
  !best

(* The parent is reduced, so every other row and column keeps a zero
   and only row [i] and column [j] can need re-reducing. *)
let exclude_child t (i, j) penalty =
  if penalty >= inf then None
  else begin
    let k = t.k and m = Array.copy t.m in
    m.((i * k) + j) <- inf;
    let r = reduce_line m ~k ~start:(i * k) ~stride:1 in
    let b = t.node_bound + r + reduce_line m ~k ~start:j ~stride:k in
    if b >= inf then None
    else Some { t with m; node_bound = b }
  end

let without a x = Array.init (Array.length a - 1) (fun y -> a.(if y < x then y else y + 1))

let index a v =
  let rec go x = if a.(x) = v then x else go (x + 1) in
  go 0

let include_child t (i, j) =
  let k = t.k - 1 in
  let m = Array.make (k * k) 0 in
  for r = 0 to k - 1 do
    let from = (if r < i then r else r + 1) * t.k in
    for c = 0 to k - 1 do
      m.((r * k) + c) <- t.m.(from + if c < j then c else c + 1)
    done
  done;
  let rows = without t.rows i and cols = without t.cols j in
  let ci = t.rows.(i) and cj = t.cols.(j) in
  (* Path bookkeeping: including ci->cj merges the path ending at ci
     with the path starting at cj; closing that merged path back on
     itself would create a subtour, so forbid its closing edge while
     the tour is incomplete. *)
  let path_start = Array.copy t.path_start and path_end = Array.copy t.path_end in
  let s = path_start.(ci) and e = path_end.(cj) in
  path_end.(s) <- e;
  path_start.(e) <- s;
  m.((index rows e * k) + index cols s) <- inf;
  match reduce k m with
  | None -> None
  | Some r ->
    let b = t.node_bound + r in
    if b >= inf then None
    else
      Some
        { k; m; rows; cols; node_bound = b; edges = (ci, cj) :: t.edges; path_start; path_end }

(* Reconstruct the closed tour (starting at city 0) from a complete
   edge set. Returns None if the edges do not form one Hamiltonian
   cycle. *)
let tour_of_edges n edges =
  let succ = Array.make n (-1) in
  let ok = ref (List.length edges = n) in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || succ.(i) <> -1 then ok := false else succ.(i) <- j)
    edges;
  if not !ok then None
  else begin
    let tour = ref [ 0 ] and current = ref succ.(0) and steps = ref 1 in
    while !current <> 0 && !current <> -1 && !steps < n do
      tour := !current :: !tour;
      current := succ.(!current);
      incr steps
    done;
    if !current = 0 && !steps = n then Some (List.rev !tour) else None
  end

(* With two active rows/columns the assignment is forced (up to the
   subtour-forbidden entries): try both pairings, keep valid tours. *)
let complete inst t =
  List.filter_map
    (fun pair ->
      if List.exists (fun (r, c) -> t.m.((r * 2) + c) >= inf) pair then None
      else
        let pair = List.map (fun (r, c) -> (t.rows.(r), t.cols.(c))) pair in
        tour_of_edges (Instance.size inst) (pair @ t.edges)
        |> Option.map (fun tour -> (tour, Instance.tour_cost inst tour)))
    [ [ (0, 0); (1, 1) ]; [ (0, 1); (1, 0) ] ]
  |> List.sort (fun (_, a) (_, b) -> compare a b)
  |> (function [] -> None | best :: _ -> Some best)

type outcome = Children of node list | Tour of int list * int
type expansion = { outcome : outcome; work : int }

let expand inst t =
  let work = t.k * t.k in
  if t.k <= 2 then
    match complete inst t with
    | Some (tour, cost) -> { outcome = Tour (tour, cost); work }
    | None -> { outcome = Children []; work }
  else
    match choose_branch_edge t with
    | None -> { outcome = Children []; work }
    | Some (penalty, i, j) ->
      let children =
        List.filter_map
          (fun c -> c)
          [ include_child t (i, j); exclude_child t (i, j) penalty ]
      in
      (* Charged as if each child re-reduced the whole k x k matrix. *)
      { outcome = Children children; work = work * 3 }

let solve_sequential ?initial ?on_expand inst =
  let open_nodes = Engine.Pqueue.create ~dummy:(root inst) () in
  let push nd = Engine.Pqueue.add open_nodes ~key:(bound nd) nd in
  push (root inst);
  let best_cost, best_tour =
    match initial with
    | Some (tour, cost) -> (ref cost, ref tour)
    | None -> (ref inf, ref [])
  in
  let expanded = ref 0 in
  let rec loop () =
    match Engine.Pqueue.pop_min open_nodes with
    | None -> ()
    | Some (b, _) when b >= !best_cost -> loop ()
    | Some (_, nd) ->
      incr expanded;
      let { outcome; work } = expand inst nd in
      (match on_expand with Some f -> f nd work | None -> ());
      (match outcome with
      | Tour (tour, cost) ->
        if cost < !best_cost then begin
          best_cost := cost;
          best_tour := tour
        end
      | Children children ->
        List.iter (fun c -> if bound c < !best_cost then push c) children);
      loop ()
  in
  loop ();
  if !best_tour = [] then invalid_arg "Lmsk.solve_sequential: no tour found";
  ((!best_tour, !best_cost), !expanded)

let brute_force inst =
  let n = Instance.size inst in
  if n > 10 then invalid_arg "Lmsk.brute_force: too large";
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) xs in
          List.map (fun p -> x :: p) (permutations rest))
        xs
  in
  (* A tour through a forbidden edge is no tour: saturate at [inf]
     rather than let several sentinels overflow. *)
  let rec cost acc = function
    | a :: rest ->
      let c = Instance.cost inst a (match rest with b :: _ -> b | [] -> 0) in
      if c >= inf then inf else cost (acc + c) rest
    | [] -> acc
  in
  let cities = List.init (n - 1) (fun i -> i + 1) in
  List.fold_left (fun best perm -> min best (cost 0 (0 :: perm))) inf (permutations cities)
