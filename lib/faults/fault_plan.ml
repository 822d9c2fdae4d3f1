type fault =
  | Mem_degrade of { node : int; factor : int; until_ns : int }
  | Mem_stuck of { node : int; until_ns : int }
  | Proc_stall of { proc : int; ns : int }
  | Thread_kill of { tid : int }
  | Lock_holder_delay of { lock : string; ns : int }
  | Swap_stall of { obj : string; ns : int }
      (* stall the swapper inside the next implementation-swap window
         of [obj] ("*" = any) at/after the event time *)
  | Swap_kill of { obj : string }
      (* kill the swapper inside its next swap window — the freeze is
         left behind for the abandoned-swap recovery to clean up *)

type event = { at_ns : int; fault : fault }
type t = event list

let event_to_string { at_ns; fault } =
  match fault with
  | Mem_degrade { node; factor; until_ns } ->
    Printf.sprintf "mem-degrade@%d:node=%d,factor=%d,until=%d" at_ns node factor until_ns
  | Mem_stuck { node; until_ns } ->
    Printf.sprintf "mem-stuck@%d:node=%d,until=%d" at_ns node until_ns
  | Proc_stall { proc; ns } -> Printf.sprintf "proc-stall@%d:proc=%d,ns=%d" at_ns proc ns
  | Thread_kill { tid } -> Printf.sprintf "kill@%d:tid=%d" at_ns tid
  | Lock_holder_delay { lock; ns } ->
    Printf.sprintf "holder-delay@%d:lock=%s,ns=%d" at_ns lock ns
  | Swap_stall { obj; ns } -> Printf.sprintf "swap-stall@%d:obj=%s,ns=%d" at_ns obj ns
  | Swap_kill { obj } -> Printf.sprintf "kill-in-swap@%d:obj=%s" at_ns obj

let to_string t = String.concat ";" (List.map event_to_string t)

let fail fmt = Printf.ksprintf failwith fmt

(* "k1=v1,k2=v2" -> assoc list, order preserved *)
let parse_args field s =
  String.split_on_char ',' s
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | None -> fail "Fault_plan.of_string: %S: argument %S is not key=value" field kv
         | Some i ->
           (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)))

let parse_event field =
  let kind, rest =
    match String.index_opt field '@' with
    | None -> fail "Fault_plan.of_string: %S: missing '@time'" field
    | Some i ->
      (String.sub field 0 i, String.sub field (i + 1) (String.length field - i - 1))
  in
  let at_str, args_str =
    match String.index_opt rest ':' with
    | None -> (rest, "")
    | Some i -> (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
  in
  let at_ns =
    match int_of_string_opt at_str with
    | Some n when n >= 0 -> n
    | _ -> fail "Fault_plan.of_string: %S: bad time %S" field at_str
  in
  let args = if args_str = "" then [] else parse_args field args_str in
  let str key =
    match List.assoc_opt key args with
    | Some v -> v
    | None -> fail "Fault_plan.of_string: %S: missing argument %S" field key
  in
  let int key =
    match int_of_string_opt (str key) with
    | Some n -> n
    | None -> fail "Fault_plan.of_string: %S: argument %S is not an integer" field key
  in
  let fault =
    match kind with
    | "mem-degrade" ->
      Mem_degrade { node = int "node"; factor = int "factor"; until_ns = int "until" }
    | "mem-stuck" -> Mem_stuck { node = int "node"; until_ns = int "until" }
    | "proc-stall" -> Proc_stall { proc = int "proc"; ns = int "ns" }
    | "kill" -> Thread_kill { tid = int "tid" }
    | "holder-delay" -> Lock_holder_delay { lock = str "lock"; ns = int "ns" }
    | "swap-stall" -> Swap_stall { obj = str "obj"; ns = int "ns" }
    | "kill-in-swap" -> Swap_kill { obj = str "obj" }
    | k -> fail "Fault_plan.of_string: unknown fault kind %S" k
  in
  { at_ns; fault }

let sort t = List.stable_sort (fun a b -> compare a.at_ns b.at_ns) t

let of_string s =
  String.split_on_char ';' s
  |> List.map String.trim
  |> List.filter (fun f -> f <> "")
  |> List.map parse_event
  |> sort

let generate ?(swap_faults = false) ~seed ~cfg ~horizon_ns () =
  if horizon_ns <= 0 then invalid_arg "Fault_plan.generate: horizon_ns must be positive";
  let procs = cfg.Butterfly.Config.processors in
  let rng = Engine.Rng.create seed in
  let count = 1 + Engine.Rng.int rng 3 in
  let at () = Engine.Rng.int_in rng (horizon_ns / 10) horizon_ns in
  let window at = at + Engine.Rng.int_in rng (horizon_ns / 10) (horizon_ns / 2) in
  (* The swap-window kinds are drawn only when asked for: plans from
     pre-existing seeds must stay bit-for-bit identical. *)
  let kinds = if swap_faults then 7 else 5 in
  let events =
    List.init count (fun _ ->
        let at_ns = at () in
        let fault =
          match Engine.Rng.int rng kinds with
          | 0 ->
            Mem_degrade
              {
                node = Engine.Rng.int rng procs;
                factor = Engine.Rng.int_in rng 2 16;
                until_ns = window at_ns;
              }
          | 1 -> Mem_stuck { node = Engine.Rng.int rng procs; until_ns = window at_ns }
          | 2 ->
            Proc_stall
              {
                proc = Engine.Rng.int rng procs;
                ns = Engine.Rng.int_in rng (horizon_ns / 20) (horizon_ns / 4);
              }
          | 3 -> Thread_kill { tid = Engine.Rng.int_in rng 1 (max 2 (2 * procs)) }
          | 4 ->
            Lock_holder_delay
              { lock = "*"; ns = Engine.Rng.int_in rng (horizon_ns / 20) (horizon_ns / 4) }
          | 5 ->
            Swap_stall
              { obj = "*"; ns = Engine.Rng.int_in rng (horizon_ns / 20) (horizon_ns / 2) }
          | _ -> Swap_kill { obj = "*" }
        in
        { at_ns; fault })
  in
  sort events
