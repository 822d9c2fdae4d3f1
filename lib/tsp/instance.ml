let infinity_cost = max_int / 4

type t = { n : int; costs : int array (* flattened n*n *) }

let generate ~seed n =
  if n < 3 then invalid_arg "Instance.generate: need at least 3 cities";
  let rng = Engine.Rng.create seed in
  let costs = Array.make (n * n) infinity_cost in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then costs.((i * n) + j) <- 1 + Engine.Rng.int rng 100
    done
  done;
  { n; costs }

let generate_euclidean ~seed n =
  let scale = 1000.0 in
  if n < 3 then invalid_arg "Instance.generate_euclidean: need at least 3 cities";
  let rng = Engine.Rng.create seed in
  let pts =
    Array.init n (fun _ ->
        let x = Engine.Rng.float rng scale in
        let y = Engine.Rng.float rng scale in
        (x, y))
  in
  let costs = Array.make (n * n) infinity_cost in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let xi, yi = pts.(i) and xj, yj = pts.(j) in
        let d = sqrt (((xi -. xj) ** 2.0) +. ((yi -. yj) ** 2.0)) in
        costs.((i * n) + j) <- 1 + int_of_float (d /. 10.0)
      end
    done
  done;
  { n; costs }

let of_matrix m =
  let n = Array.length m in
  if n < 3 then invalid_arg "Instance.of_matrix: need at least 3 cities";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Instance.of_matrix: not square")
    m;
  let costs = Array.make (n * n) infinity_cost in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        if m.(i).(j) < 0 then invalid_arg "Instance.of_matrix: negative cost";
        costs.((i * n) + j) <- m.(i).(j)
      end
    done
  done;
  { n; costs }

let size t = t.n
let cost t i j = t.costs.((i * t.n) + j)

let check_permutation t tour =
  if List.length tour <> t.n then invalid_arg "Instance.tour_cost: wrong length";
  let seen = Array.make t.n false in
  List.iter
    (fun c ->
      if c < 0 || c >= t.n || seen.(c) then invalid_arg "Instance.tour_cost: not a permutation";
      seen.(c) <- true)
    tour

let tour_cost t tour =
  check_permutation t tour;
  match tour with
  | [] -> 0
  | first :: _ ->
    let rec loop acc = function
      | [ last ] -> acc + cost t last first
      | a :: (b :: _ as rest) -> loop (acc + cost t a b) rest
      | [] -> acc
    in
    loop 0 tour

let nearest_neighbour t =
  let visited = Array.make t.n false in
  visited.(0) <- true;
  let rec loop current acc_cost acc_tour remaining =
    if remaining = 0 then (List.rev acc_tour, acc_cost + cost t current 0)
    else begin
      let best = ref (-1) and best_cost = ref infinity_cost in
      for j = 0 to t.n - 1 do
        if (not visited.(j)) && cost t current j < !best_cost then begin
          best := j;
          best_cost := cost t current j
        end
      done;
      visited.(!best) <- true;
      loop !best (acc_cost + !best_cost) (!best :: acc_tour) (remaining - 1)
    end
  in
  loop 0 0 [ 0 ] (t.n - 1)
