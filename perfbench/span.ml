(* In-memory span recorder for the traced pass.

   A span brackets one call from the benchmark into a layer's public
   functions: name, start, end, parent span, plus the simulated events
   and host words allocated inside it (so per-event ratios are taken
   where the work happens). Spans are kept in memory and written out
   once, at the end of the run. With recording off, [with_span] is a
   plain call: the untraced pass pays one branch per boundary. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  pass : int;  (** which traced pass recorded it *)
  start_s : float;
  stop_s : float;
  events : int;  (** simulated events executed inside the span *)
  alloc_words : float;  (** host words allocated inside the span *)
}

let recording = ref false
let pass = ref 0
let next_id = ref 0
let stack : int list ref = ref []
let finished : t list ref = ref []

let now () = Unix.gettimeofday ()
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let with_span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let e0 = Butterfly.Sched.domain_events_total () in
    let w0 = words () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      stack := List.tl !stack;
      finished :=
        {
          id;
          parent;
          name;
          pass = !pass;
          start_s = t0;
          stop_s = t1;
          events = Butterfly.Sched.domain_events_total () - e0;
          alloc_words = words () -. w0;
        }
        :: !finished
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !finished
let duration s = s.stop_s -. s.start_s

(* Self time: a span's duration minus the part its direct children
   cover (children never overlap: one domain, strictly nested calls). *)
let self_time spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) spans

let named spans name = List.filter (fun s -> s.name = name) spans

(* Chrome trace-event JSON ("X" complete events, microseconds), so the
   spans open in Perfetto or chrome://tracing. *)
let to_chrome_json spans =
  let b = Buffer.create 4096 in
  let origin = List.fold_left (fun m s -> Float.min m s.start_s) infinity spans in
  let n = List.length spans in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.bprintf b
        "  {\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": \
         %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"events\": %d, \"alloc_words\": \
         %.0f, \"self_us\": %.3f}}%s\n"
        s.name s.pass
        ((s.start_s -. origin) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.events s.alloc_words
        (self_time spans s *. 1e6)
        (if i < n - 1 then "," else ""))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
