type t = {
  series_name : string;
  mutable ts : int array;
  mutable vs : float array;
  mutable n : int;
}

let create ~name () =
  { series_name = name; ts = Array.make 64 0; vs = Array.make 64 0.0; n = 0 }

let name s = s.series_name
let length s = s.n

let grow s =
  let capacity = Array.length s.ts * 2 in
  let ts = Array.make capacity 0 and vs = Array.make capacity 0.0 in
  Array.blit s.ts 0 ts 0 s.n;
  Array.blit s.vs 0 vs 0 s.n;
  s.ts <- ts;
  s.vs <- vs

let add s ~t ~v =
  if s.n > 0 && t < s.ts.(s.n - 1) then
    invalid_arg "Series.add: timestamps must be non-decreasing";
  if s.n = Array.length s.ts then grow s;
  s.ts.(s.n) <- t;
  s.vs.(s.n) <- v;
  s.n <- s.n + 1

let iter s f =
  for i = 0 to s.n - 1 do
    f s.ts.(i) s.vs.(i)
  done

let fold s ~init ~f =
  let acc = ref init in
  iter s (fun t v -> acc := f !acc t v);
  !acc

let max_value s =
  fold s ~init:None ~f:(fun acc _ v ->
      match acc with None -> Some v | Some m -> Some (Float.max m v))

let time_weighted_mean s =
  if s.n < 2 then None
  else begin
    let total_span = float_of_int (s.ts.(s.n - 1) - s.ts.(0)) in
    if total_span <= 0.0 then
      Some (fold s ~init:0.0 ~f:(fun acc _ v -> acc +. v) /. float_of_int s.n)
    else begin
      let weighted = ref 0.0 in
      for i = 0 to s.n - 2 do
        let dt = float_of_int (s.ts.(i + 1) - s.ts.(i)) in
        weighted := !weighted +. (s.vs.(i) *. dt)
      done;
      Some (!weighted /. total_span)
    end
  end

let resample s ~buckets =
  if buckets <= 0 then invalid_arg "Series.resample: buckets must be positive";
  if s.n = 0 then [||]
  else begin
    let t0 = s.ts.(0) and t1 = s.ts.(s.n - 1) in
    let span = max 1 (t1 - t0) in
    let sums = Array.make buckets 0.0 and counts = Array.make buckets 0 in
    iter s (fun t v ->
        let b = min (buckets - 1) ((t - t0) * buckets / span) in
        sums.(b) <- sums.(b) +. v;
        counts.(b) <- counts.(b) + 1);
    let out = Array.make buckets (t0, 0.0) in
    let prev = ref s.vs.(0) in
    for b = 0 to buckets - 1 do
      let mid = t0 + ((b * span) / buckets) + (span / (2 * buckets)) in
      let v = if counts.(b) = 0 then !prev else sums.(b) /. float_of_int counts.(b) in
      prev := v;
      out.(b) <- (mid, v)
    done;
    out
  end

let csv_string series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time";
  List.iter (fun s -> Printf.bprintf buf ",%s" s.series_name) series;
  Buffer.add_char buf '\n';
  (* Merge by time: advance a cursor per series, carrying values forward. *)
  let cursors = Array.make (List.length series) 0 in
  let arr = Array.of_list series in
  let current = Array.make (Array.length arr) nan in
  let rec next_time best i =
    if i >= Array.length arr then best
    else begin
      let s = arr.(i) in
      let best =
        if cursors.(i) < s.n then
          match best with
          | None -> Some s.ts.(cursors.(i))
          | Some b -> Some (min b s.ts.(cursors.(i)))
        else best
      in
      next_time best (i + 1)
    end
  in
  let rec emit () =
    match next_time None 0 with
    | None -> ()
    | Some t ->
      Array.iteri
        (fun i s ->
          while cursors.(i) < s.n && s.ts.(cursors.(i)) <= t do
            current.(i) <- s.vs.(cursors.(i));
            cursors.(i) <- cursors.(i) + 1
          done)
        arr;
      Printf.bprintf buf "%d" t;
      Array.iter
        (fun v ->
          if Float.is_nan v then Buffer.add_char buf ',' else Printf.bprintf buf ",%g" v)
        current;
      Buffer.add_char buf '\n';
      emit ()
  in
  emit ();
  Buffer.contents buf
