type t = {
  read : unit -> int;
  sample_period : int;
  mutable countdown : int;
  overhead_instrs : int;
  mutable samples : int;
}

let make ?(period = 1) ?(overhead_instrs = 40) read =
  if period < 1 then invalid_arg "Sensor.make: period must be >= 1";
  {
    read;
    sample_period = period;
    countdown = period;
    overhead_instrs;
    samples = 0;
  }

let sample t =
  t.samples <- t.samples + 1;
  if t.overhead_instrs > 0 then Butterfly.Ops.work_instrs t.overhead_instrs;
  t.read ()

let tick t =
  t.countdown <- t.countdown - 1;
  if t.countdown <= 0 then begin
    t.countdown <- t.sample_period;
    Some (sample t)
  end
  else None

let force t = sample t

let samples_taken t = t.samples
