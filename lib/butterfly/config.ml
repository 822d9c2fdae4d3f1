type t = {
  processors : int;
  instr_ns : int;
  local_read_ns : int;
  local_write_ns : int;
  remote_read_ns : int;
  remote_write_ns : int;
  atomic_extra_ns : int;
  switch_ns : int;
  block_ns : int;
  unblock_ns : int;
  wakeup_latency_ns : int;
  fork_ns : int;
  join_ns : int;
  yield_ns : int;
  contention : bool;
  module_service_ns : int;
  quantum_ns : int option;
  max_events : int;
  seed : int;
}

let default =
  {
    processors = 32;
    instr_ns = 62;
    local_read_ns = 600;
    local_write_ns = 550;
    remote_read_ns = 4000;
    remote_write_ns = 3800;
    atomic_extra_ns = 900;
    switch_ns = 50_000;
    block_ns = 150_000;
    unblock_ns = 180_000;
    wakeup_latency_ns = 120_000;
    fork_ns = 120_000;
    join_ns = 9_000;
    yield_ns = 11_000;
    contention = true;
    module_service_ns = 700;
    quantum_ns = Some 1_000_000;
    max_events = 400_000_000;
    seed = 0x5eed;
  }

let with_processors processors cfg =
  if processors <= 0 then invalid_arg "Config.with_processors: need at least one";
  { cfg with processors }

let instrs cfg n = n * cfg.instr_ns

let uma cfg =
  { cfg with remote_read_ns = cfg.local_read_ns; remote_write_ns = cfg.local_write_ns }
