module Attribute = Adaptive_core.Attribute

type t = {
  spin_count : int Attribute.t;
  delay_ns : int Attribute.t;
  backoff : bool Attribute.t;
  sleep : bool Attribute.t;
  timeout_ns : int Attribute.t;
}

let make ?node ~spin_count ~delay_ns ~backoff ~sleep ~timeout_ns () =
  let node = match node with Some n -> n | None -> Butterfly.Ops.my_processor () in
  {
    spin_count = Attribute.make_at ~name:"spin-time" ~node spin_count;
    delay_ns = Attribute.make_at ~name:"delay-time" ~node delay_ns;
    backoff = Attribute.make_at ~name:"backoff" ~node backoff;
    sleep = Attribute.make_at ~name:"sleep-time" ~node sleep;
    timeout_ns = Attribute.make_at ~name:"timeout" ~node timeout_ns;
  }

let pure_spin ?node () =
  make ?node ~spin_count:max_int ~delay_ns:0 ~backoff:false ~sleep:false ~timeout_ns:0 ()

let backoff_spin ?node () =
  make ?node ~spin_count:max_int ~delay_ns:2_000 ~backoff:true ~sleep:false ~timeout_ns:0 ()

let pure_sleep ?node () =
  make ?node ~spin_count:0 ~delay_ns:0 ~backoff:false ~sleep:true ~timeout_ns:0 ()

let combined ?node ~spins () =
  make ?node ~spin_count:spins ~delay_ns:0 ~backoff:false ~sleep:true ~timeout_ns:0 ()

let conditional ?node ~timeout_ns () =
  make ?node ~spin_count:max_int ~delay_ns:0 ~backoff:false ~sleep:true ~timeout_ns ()

let describe t =
  let spin = Attribute.get t.spin_count in
  let sleep = Attribute.get t.sleep in
  let delay = Attribute.get t.delay_ns in
  let timeout = Attribute.get t.timeout_ns in
  if not sleep then begin
    if delay > 0 then "spin (back-off)" else "pure spin"
  end
  else if spin = 0 && timeout = 0 then "pure sleep"
  else if timeout > 0 then "conditional sleep/spin"
  else "mixed sleep/spin"

let freeze t =
  Attribute.set_mutability t.spin_count false;
  Attribute.set_mutability t.delay_ns false;
  Attribute.set_mutability t.backoff false;
  Attribute.set_mutability t.sleep false;
  Attribute.set_mutability t.timeout_ns false
