type t = { base_ns : int; cap_ns : int; jitter_pct : int; rng : Rng.t }

let create ?(base_ns = 1_000) ?(cap_ns = 1_000_000) ?(jitter_pct = 25) ~seed () =
  if base_ns <= 0 then invalid_arg "Backoff.create: base_ns must be positive";
  if cap_ns <= 0 then invalid_arg "Backoff.create: cap_ns must be positive";
  let jitter_pct = Int.max 0 (Int.min 100 jitter_pct) in
  { base_ns; cap_ns; jitter_pct; rng = Rng.create seed }

let gap_ns t ~attempt =
  if attempt < 0 then invalid_arg "Backoff.gap_ns: negative attempt";
  (* Shift with overflow guard: past 40 doublings we are far beyond any
     sensible cap anyway. *)
  let exp = if attempt >= 40 then t.cap_ns else t.base_ns * (1 lsl attempt) in
  let gap = Int.min t.cap_ns exp in
  let gap =
    if t.jitter_pct = 0 then gap
    else begin
      let span = gap * t.jitter_pct / 100 in
      if span = 0 then gap else gap - span + Rng.int t.rng ((2 * span) + 1)
    end
  in
  Int.max 1 gap

let retry t ~max_attempts ~sleep f =
  if max_attempts <= 0 then invalid_arg "Backoff.retry: max_attempts must be positive";
  let rec go attempt =
    if f () then true
    else if attempt + 1 >= max_attempts then false
    else begin
      sleep (gap_ns t ~attempt);
      go (attempt + 1)
    end
  in
  go 0
