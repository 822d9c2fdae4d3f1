type point = { cs_ns : int; total_ns : int }
type curve = { kind : Locks.Lock.kind; points : point list }

let cs_lengths = [ 5_000; 10_000; 25_000; 50_000; 100_000; 200_000; 400_000; 800_000 ]

let of_sweep swept =
  List.map
    (fun (kind, curve) ->
      {
        kind;
        points =
          List.map
            (fun (cs_ns, (r : Workloads.Csweep.result)) ->
              { cs_ns; total_ns = r.Workloads.Csweep.total_ns })
            curve;
      })
    swept

let run ?domains () =
  of_sweep
    (Workloads.Csweep.sweep ?domains ~base:Workloads.Csweep.default ~cs_lengths
       ~kinds:Paper.figure1_lock_kinds ())

let find kind curves = List.find (fun c -> c.kind = kind) curves

let time_at curve cs =
  match List.find_opt (fun p -> p.cs_ns = cs) curve.points with
  | Some p -> p.total_ns
  | None -> invalid_arg "Fig1.time_at"

let crossover_summary curves =
  let spin = find Locks.Lock.Spin curves in
  let blocking = find Locks.Lock.Blocking curves in
  let c1 = find (Locks.Lock.Combined 1) curves in
  let c10 = find (Locks.Lock.Combined 10) curves in
  let c50 = find (Locks.Lock.Combined 50) curves in
  let shortest = (List.hd spin.points).cs_ns in
  let longest = (List.nth spin.points (List.length spin.points - 1)).cs_ns in
  let buf = Buffer.create 256 in
  let claim name ok =
    Buffer.add_string buf (Printf.sprintf "  [%s] %s\n" (if ok then "ok" else "MISS") name)
  in
  claim "blocking beats spin for the longest critical sections"
    (time_at blocking longest < time_at spin longest);
  claim
    "combined(10) beats combined(1) for some section length"
    (List.exists (fun p -> p.total_ns < time_at c1 p.cs_ns) c10.points);
  claim
    "combined(50) loses to combined(10) for some section length"
    (List.exists (fun p -> time_at c50 p.cs_ns > p.total_ns) c10.points);
  claim "spin is competitive for the shortest critical sections"
    (let ts = time_at spin shortest and tb = time_at blocking shortest in
     ts <= tb);
  Buffer.contents buf

let to_plot curves =
  let named =
    List.map
      (fun c ->
        ( Locks.Lock.kind_name c.kind,
          List.map
            (fun p ->
              (float_of_int p.cs_ns /. 1000.0, float_of_int p.total_ns /. 1_000_000.0))
            c.points ))
      curves
  in
  Repro_stats.Plot.lines ~x_label:"critical section (us)" ~y_label:"execution time (ms)"
    named

let csv_string curves =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "cs_ns";
  List.iter (fun c -> Printf.bprintf buf ",%s" (Locks.Lock.kind_name c.kind)) curves;
  Buffer.add_char buf '\n';
  (match curves with
  | [] -> ()
  | first :: _ ->
    List.iter
      (fun p ->
        Printf.bprintf buf "%d" p.cs_ns;
        List.iter (fun c -> Printf.bprintf buf ",%d" (time_at c p.cs_ns)) curves;
        Buffer.add_char buf '\n')
      first.points);
  Buffer.contents buf
