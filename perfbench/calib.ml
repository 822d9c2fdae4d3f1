(* Host-speed reference: a fixed kernel, independent of lib/, timed
   every half second of a pass so that the pass can be read at a
   fixed host speed.

   The host this benchmark was built on shares its cores with other
   tenants. Under their load the same pass runs up to 2x slower, in
   phases lasting seconds to minutes, often longer than a run, so no
   statistic over one run's passes is steady. The reference is a
   bytecode interpreter that allocates nothing, so neither a change to
   the program nor the program's heap can move it, and it slows with the
   pass: over five minutes that switched phases, its ratio to a soak
   slice spread 8% where the slice spread 44% (quartile distance over
   median). *)

type instr = Push of int | Mul | Dup | Pop | Dec | Jmpnz of int

let prog = [| Push 360_000; Dup; Push 3; Mul; Pop; Dec; Dup; Jmpnz 1; Pop |]
let stack = Array.make 16 0
let table = Hashtbl.create 1024
let () = for k = 0 to 1023 do Hashtbl.replace table k 0 done

(* Branchy dispatch on variants over a small stack, with a store into a
   full hash table every 64 steps (which replaces in place). *)
let interp () =
  let st = stack and sp = ref 0 and pc = ref 0 and steps = ref 0 in
  while !pc < Array.length prog do
    incr steps;
    (match prog.(!pc) with
    | Push n ->
      st.(!sp) <- n;
      incr sp;
      incr pc
    | Mul ->
      decr sp;
      st.(!sp - 1) <- st.(!sp - 1) * st.(!sp);
      incr pc
    | Dup ->
      st.(!sp) <- st.(!sp - 1);
      incr sp;
      incr pc
    | Pop ->
      decr sp;
      incr pc
    | Dec ->
      st.(!sp - 1) <- st.(!sp - 1) - 1;
      incr pc
    | Jmpnz t ->
      decr sp;
      if st.(!sp) <> 0 then pc := t else incr pc);
    if !steps land 63 = 0 then Hashtbl.replace table (!steps land 1023) !steps
  done;
  !steps

(* Host seconds of the reference: the median of three timings. *)
let sample () =
  let time () =
    let t = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (interp ()));
    Unix.gettimeofday () -. t
  in
  let a = Array.init 3 (fun _ -> time ()) in
  Array.sort compare a;
  a.(1)

(* The reference's time between neighbour-load phases on the two-vCPU
   Xeon VM this was written on. *)
let reference_s = 0.008

(* How strongly a time slows with the reference: [t] slows by the
   reference's slowdown to this power. The slope of log time on log
   reference time over runs that spanned load phases; each workload
   states its own (Work.t), as memory-bound code slows less than the
   core-bound reference. Set-up's, over 400 launches, came out 0.61. *)
let setup_elasticity = 0.6

(* [t] host seconds, taken when the reference took [ref] seconds, read
   at the speed at which it takes [reference_s]. *)
let at_reference ~elasticity ~ref t = t *. ((reference_s /. ref) ** elasticity)

(* The segment clock. A timer cuts a timed pass into segments of
   [segment_s]; at each cut the signal handler samples the reference,
   outside the segments, and a segment is read at the mean of the
   samples on either side of it. Three timings of 9-15 ms per cut take
   about a twentieth of the run. *)
let segment_s = 0.5

type clock = {
  mutable last_ref : float;  (** the latest sample *)
  mutable seg_start : float;
  mutable host_s : float;  (** host seconds of the pass's segments *)
  mutable scaled_s : float;  (** the same, read at the reference speed *)
  mutable samples : float list;  (** every sample, latest first *)
  mutable in_pass : bool;
  mutable elasticity : float;  (** the workload's *)
}

let clock =
  {
    last_ref = nan;
    seg_start = nan;
    host_s = 0.;
    scaled_s = 0.;
    samples = [];
    in_pass = false;
    elasticity = 1.;
  }

let record r =
  clock.last_ref <- r;
  clock.samples <- r :: clock.samples

let checkpoint () =
  let t = Unix.gettimeofday () in
  let d = t -. clock.seg_start in
  let r = sample () in
  clock.host_s <- clock.host_s +. d;
  clock.scaled_s <-
    clock.scaled_s
    +. at_reference ~elasticity:clock.elasticity ~ref:((clock.last_ref +. r) /. 2.) d;
  record r;
  clock.seg_start <- Unix.gettimeofday ()

let set_timer s =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = s })

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if clock.in_pass then begin
           checkpoint ();
           set_timer segment_s
         end))

(* Run [f] as one timed pass of a workload of the given elasticity: its
   result, host seconds and seconds at the reference speed. Takes a
   first sample if none was taken yet. *)
let time_pass ~elasticity f =
  if clock.samples = [] then record (sample ());
  clock.elasticity <- elasticity;
  clock.host_s <- 0.;
  clock.scaled_s <- 0.;
  clock.seg_start <- Unix.gettimeofday ();
  clock.in_pass <- true;
  set_timer segment_s;
  let x =
    Fun.protect
      ~finally:(fun () ->
        clock.in_pass <- false;
        set_timer 0.)
      f
  in
  checkpoint ();
  (x, clock.host_s, clock.scaled_s)
