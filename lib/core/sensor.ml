type 'a t = {
  sensor_name : string;
  read : unit -> 'a;
  mutable sample_period : int;
  mutable countdown : int;
  overhead_instrs : int;
  mutable samples : int;
  mutable recorder : ('a -> unit) option;
}

let make ~name ?(period = 1) ?(overhead_instrs = 40) read =
  if period < 1 then invalid_arg "Sensor.make: period must be >= 1";
  {
    sensor_name = name;
    read;
    sample_period = period;
    countdown = period;
    overhead_instrs;
    samples = 0;
    recorder = None;
  }

let sample t =
  t.samples <- t.samples + 1;
  if t.overhead_instrs > 0 then Butterfly.Ops.work_instrs t.overhead_instrs;
  let v = t.read () in
  (match t.recorder with Some record -> record v | None -> ());
  v

let tick t =
  t.countdown <- t.countdown - 1;
  if t.countdown <= 0 then begin
    t.countdown <- t.sample_period;
    Some (sample t)
  end
  else None

let force t = sample t

let set_period t p =
  if p < 1 then invalid_arg "Sensor.set_period: period must be >= 1";
  t.sample_period <- p;
  t.countdown <- Int.min t.countdown p

let samples_taken t = t.samples

let history t ~record =
  let series = Engine.Series.create ~name:t.sensor_name () in
  t.recorder <-
    Some (fun v -> Engine.Series.add series ~t:(Butterfly.Ops.now ()) ~v:(record v));
  series
