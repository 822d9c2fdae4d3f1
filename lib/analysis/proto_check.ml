(* Explicit-state model checker over Core.Protocol. One bounded BFS
   per model judges all of its properties, over a packed seen-set
   (varint-encoded states in one byte arena, found through an
   open-addressing table of ids); liveness via backward reachability
   from the goal states. Deterministic throughout, so every state
   count, verdict and counterexample — and the JSON built from them —
   is the same bytes at any domain count. *)

module Protocol = Adaptive_core.Protocol

type counterexample = { x_steps : (string * string) list; x_why : string; x_state : string }

type verdict = Holds | Violated of counterexample | Out_of_bounds

type report = {
  r_model : string;
  r_property : string;
  r_desc : string;
  r_states : int;
  r_edges : int;
  r_verdict : verdict;
}

(* -- packed states -- *)

(* Zigzag varints: a small magnitude of either sign takes one byte, any
   int at most nine, and the code is prefix-free, so a state's bytes
   are equal exactly when its slots are. *)
let max_varint = 9

let put_varint b pos v =
  let z = ref ((v lsl 1) lxor (v asr (Sys.int_size - 1))) and p = ref pos in
  while !z land lnot 0x7f <> 0 do
    Bytes.set b !p (Char.unsafe_chr (!z land 0x7f lor 0x80));
    z := !z lsr 7;
    incr p
  done;
  Bytes.set b !p (Char.unsafe_chr !z);
  !p + 1

let put_state b pos st =
  let p = ref pos in
  for i = 0 to Array.length st - 1 do
    p := put_varint b !p st.(i)
  done;
  !p

(* Decode [Array.length dst] varints starting at [pos] into [dst]. *)
let get_state b pos dst =
  let p = ref pos in
  for i = 0 to Array.length dst - 1 do
    let z = ref 0 and shift = ref 0 and c = ref (Char.code (Bytes.get b !p)) in
    incr p;
    while !c land 0x80 <> 0 do
      z := !z lor ((!c land 0x7f) lsl !shift);
      shift := !shift + 7;
      c := Char.code (Bytes.get b !p);
      incr p
    done;
    z := !z lor (!c lsl !shift);
    dst.(i) <- (!z lsr 1) lxor (- (!z land 1))
  done

module Codec = struct
  let pack st =
    let b = Bytes.create (max_varint * Array.length st) in
    Bytes.sub_string b 0 (put_state b 0 st)

  let unpack s width =
    let dst = Array.make width 0 in
    get_state (Bytes.unsafe_of_string s) 0 dst;
    dst
end

(* FNV-1a over the packed bytes, a word at a time, then a
   multiply-xorshift finish so the low bits the table indexes by
   depend on every byte. *)
let hash_bytes b p len =
  let h = ref len and i = ref 0 in
  while !i + 8 <= len do
    h := (!h lxor Int64.to_int (Bytes.get_int64_ne b (p + !i))) * 0x100000001b3;
    i := !i + 8
  done;
  while !i < len do
    h := (!h lxor Char.code (Bytes.get b (p + !i))) * 0x100000001b3;
    incr i
  done;
  let h = !h lxor (!h lsr 33) in
  let h = h * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

let same_bytes b p q len =
  let i = ref 0 in
  while !i + 8 <= len && Int64.equal (Bytes.get_int64_ne b (p + !i)) (Bytes.get_int64_ne b (q + !i)) do
    i := !i + 8
  done;
  while !i < len && Bytes.get b (p + !i) = Bytes.get b (q + !i) do
    incr i
  done;
  !i = len

(* -- the graph's storage -- *)

(* Ids, arena offsets, edge codes and edge indices, four bytes each in
   a [Bytes.t], which the GC never scans. Every entry is below 2^31,
   and one that is not raises rather than wrapping. *)
module Ids = struct
  type t = { mutable b : Bytes.t; mutable n : int }

  let limit = 1 lsl 31

  let fit x =
    if x < 0 || x >= limit then
      invalid_arg (Printf.sprintf "Proto_check: %d does not fit in 31 bits" x);
    x

  let create () = { b = Bytes.create 4096; n = 0 }

  (* [n] zero entries. *)
  let zeros n = { b = Bytes.make (4 * n) '\000'; n }
  let length v = v.n
  let get v i = Int32.to_int (Bytes.get_int32_ne v.b (4 * i))
  let set v i x = Bytes.set_int32_ne v.b (4 * i) (Int32.of_int (fit x))

  let push v x =
    if 4 * v.n = Bytes.length v.b then begin
      let b = Bytes.create (2 * Bytes.length v.b) in
      Bytes.blit v.b 0 b 0 (4 * v.n);
      v.b <- b
    end;
    set v v.n x;
    v.n <- v.n + 1
end

(* The seen-set. Ids are BFS discovery order, which doubles as the
   deterministic tiebreak (the earliest wedged state is the one
   reported). State [id] is the bytes [offs id] .. [offs (id + 1)] of
   one arena. The table maps a hash to ids by linear probing and is
   kept at most half full; each 8-byte slot is -1 when empty, else
   [(tag lsl 31) lor id], where the tag is the hash's top 31 bits and
   the slot's position comes from its low bits, so a probe skips most
   unequal states without reading the arena. A rehash recomputes each
   hash from the arena. The hash only places ids in the table, so it
   orders nothing. A candidate is encoded at the arena's tail and
   committed only when no equal bytes are already there. *)
type seen = {
  mutable arena : Bytes.t;
  offs : Ids.t;  (* one entry per state, plus the arena's end *)
  mutable table : Bytes.t;
}

let empty_table slots = Bytes.make (8 * slots) '\255'
let slot_get tb i = Int64.to_int (Bytes.get_int64_ne tb (8 * i))
let slot_set tb i v = Bytes.set_int64_ne tb (8 * i) (Int64.of_int v)
let tag h = h lsr 32

let seen_make () =
  let offs = Ids.create () in
  Ids.push offs 0;
  { arena = Bytes.create 65536; offs; table = empty_table 2048 }

let count s = Ids.length s.offs - 1

let rehash s =
  let slots = 2 * (Bytes.length s.table / 8) in
  let tb = empty_table slots in
  for id = 0 to count s - 1 do
    let p = Ids.get s.offs id in
    let h = hash_bytes s.arena p (Ids.get s.offs (id + 1) - p) in
    let i = ref (h land (slots - 1)) in
    while slot_get tb !i >= 0 do
      i := (!i + 1) land (slots - 1)
    done;
    slot_set tb !i ((tag h lsl 31) lor id)
  done;
  s.table <- tb

(* The id of [st], adding it when new (then [count s] grows). *)
let intern s st =
  let fresh = count s in
  let pos = Ids.get s.offs fresh in
  let need = pos + (max_varint * Array.length st) in
  if need > Bytes.length s.arena then begin
    let a = Bytes.create (2 * need) in
    Bytes.blit s.arena 0 a 0 pos;
    s.arena <- a
  end;
  let stop = put_state s.arena pos st in
  let len = stop - pos in
  let h = hash_bytes s.arena pos len in
  let tb = s.table and tg = tag h in
  let mask = (Bytes.length tb / 8) - 1 in
  let i = ref (h land mask) and found = ref (-1) in
  while
    let slot = slot_get tb !i in
    slot >= 0
    &&
    let id = slot land (Ids.limit - 1) in
    let p = Ids.get s.offs id in
    if slot lsr 31 = tg && Ids.get s.offs (id + 1) - p = len && same_bytes s.arena p pos len
    then (found := id; false)
    else true
  do
    i := (!i + 1) land mask
  done;
  if !found >= 0 then !found
  else begin
    Ids.push s.offs stop;
    slot_set tb !i ((tg lsl 31) lor Ids.fit fresh);
    if 2 * count s > mask + 1 then rehash s;
    fresh
  end

let decode s id dst = get_state s.arena (Ids.get s.offs id) dst

(* Parent records, one entry per state: the predecessor and the edge
   code taken from it (both unused for the initial state, id 0). *)
type parents = { p_pred : Ids.t; p_code : Ids.t }

(* Reconstruct the (role, label) path from the initial state to [id]. *)
let path_to model ps id =
  let rec go acc id =
    if id = 0 then acc
    else go (Protocol.edge model (Ids.get ps.p_code id) :: acc) (Ids.get ps.p_pred id)
  in
  go [] id

(* Backward reachability over CSR successor lists ([starts id] ..
   [starts (id + 1)] index [targets]): the ids [goal] holds on, and
   every id that reaches one, are ok (a nonzero byte). The reverse
   lists are built in place: [pstart t] first counts t's predecessors,
   then is summed to the end of t's block, and each predecessor is
   written one below it, from the last edge back, which leaves
   [pstart t] at the block's start and every block ascending. *)
let reaches_goal n starts targets goal =
  let m = Ids.get starts n in
  let pstart = Ids.zeros (n + 1) in
  for e = 0 to m - 1 do
    let t = Ids.get targets e in
    Ids.set pstart t (Ids.get pstart t + 1)
  done;
  for id = 1 to n - 1 do
    Ids.set pstart id (Ids.get pstart id + Ids.get pstart (id - 1))
  done;
  Ids.set pstart n m;
  let preds = Ids.zeros m in
  for id = n - 1 downto 0 do
    for e = Ids.get starts (id + 1) - 1 downto Ids.get starts id do
      let t = Ids.get targets e in
      let k = Ids.get pstart t - 1 in
      Ids.set pstart t k;
      Ids.set preds k id
    done
  done;
  let ok = Bytes.make n '\000' in
  let queue = Ids.zeros n and tail = ref 0 in
  for id = 0 to n - 1 do
    if goal id then begin
      Bytes.set ok id '\001';
      Ids.set queue !tail id;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let id = Ids.get queue !head in
    incr head;
    for e = Ids.get pstart id to Ids.get pstart (id + 1) - 1 do
      let p = Ids.get preds e in
      if Bytes.get ok p = '\000' then begin
        Bytes.set ok p '\001';
        Ids.set queue !tail p;
        incr tail
      end
    done
  done;
  ok

(* One exploration judges every property of a model. A property stays
   open until its first violation or the bound, and its report keeps
   the counts of that instant: discovery order does not depend on the
   properties, so that is exactly where a pass checking it alone would
   have stopped. *)
let check_model ?(max_states = 2_000_000) model props =
  if max_states < 1 then invalid_arg "Proto_check.check_model: max_states < 1";
  if max_states > Ids.limit then invalid_arg "Proto_check.check_model: max_states > 2^31";
  let props = Array.of_list props in
  let reports = Array.make (Array.length props) None in
  let unresolved = ref (Array.length props) in
  let init = Protocol.init model in
  let seen = seen_make () in
  let parents = { p_pred = Ids.create (); p_code = Ids.create () } in
  (* Forward adjacency in CSR form, only kept for liveness (the
     backward pass). States are expanded in id order, so [starts]
     gets one entry per expansion. *)
  let keep_edges = Array.exists (function Protocol.Liveness _ -> true | _ -> false) props in
  let starts = Ids.create () and targets = Ids.create () in
  let edges = ref 0 in
  (* The open safety and step predicates, in property-list order. *)
  let open_of pick = List.filter_map Fun.id (List.mapi pick (Array.to_list props)) in
  let safety =
    ref (open_of (fun i -> function Protocol.Safety { q_bad; _ } -> Some (i, q_bad) | _ -> None))
  in
  let steps =
    ref (open_of (fun i -> function Protocol.Step { q_bad; _ } -> Some (i, q_bad) | _ -> None))
  in
  let resolve i verdict =
    let prop = props.(i) in
    reports.(i) <-
      Some
        { r_model = Protocol.name model; r_property = Protocol.property_name prop;
          r_desc = Protocol.property_desc prop; r_states = count seen; r_edges = !edges;
          r_verdict = verdict };
    decr unresolved;
    safety := List.filter (fun (j, _) -> j <> i) !safety;
    steps := List.filter (fun (j, _) -> j <> i) !steps
  in
  let stop_when_resolved () = if !unresolved = 0 then raise Exit in
  let cur = Array.copy init in
  (* Ids are dense, so [id] is new exactly when it is the next parent
     entry; record how it was reached. *)
  let is_new id pred code =
    let fresh = id = Ids.length parents.p_pred in
    if fresh then begin
      Ids.push parents.p_pred pred;
      Ids.push parents.p_code code
    end;
    fresh
  in
  (* A new state: judge it, then apply the bound. The predicate lists
     are walked by plain recursion, so judging allocates nothing until
     a property resolves. *)
  let rec judge_safety id st = function
    | [] -> ()
    | (i, q_bad) :: rest ->
      (match q_bad model st with
      | Some why ->
        resolve i
          (Violated
             { x_steps = path_to model parents id; x_why = why;
               x_state = Protocol.describe model st })
      | None -> ());
      judge_safety id st rest
  in
  let judge_state id st =
    judge_safety id st !safety;
    if count seen >= max_states then
      Array.iteri (fun i r -> if Option.is_none r then resolve i Out_of_bounds) reports;
    stop_when_resolved ()
  in
  let rec judge_step pre_id pre code = function
    | [] -> ()
    | (i, q_bad) :: rest ->
      let role, label = Protocol.edge model code in
      (match q_bad model ~role ~label pre with
      | Some why ->
        resolve i
          (Violated
             { x_steps = path_to model parents pre_id @ [ (role, label) ]; x_why = why;
               x_state = Protocol.describe model pre })
      | None -> ());
      judge_step pre_id pre code rest
  in
  (* The queue is the id counter: every interned state is expanded, in
     discovery order, by one successor iterator and one callback for
     the whole exploration. *)
  let expanding = ref 0 in
  let iter_successors = Protocol.iter_successors model in
  let successor code st' =
    incr edges;
    if !steps != [] then begin
      judge_step !expanding cur code !steps;
      stop_when_resolved ()
    end;
    let id' = intern seen st' in
    if keep_edges then Ids.push targets id';
    if is_new id' !expanding code then judge_state id' st'
  in
  (try
     stop_when_resolved ();
     ignore (is_new (intern seen init) 0 0);
     judge_state 0 init;
     let next = ref 0 in
     while !next < count seen do
       expanding := !next;
       incr next;
       decode seen !expanding cur;
       if keep_edges then Ids.push starts (Ids.length targets);
       iter_successors cur successor
     done
   with Exit -> ());
  (* A property still open has seen the whole graph: it holds, unless
     it is a liveness property with a wedged state, which needs only
     the arena and the edges: the table goes first. *)
  let n = count seen in
  seen.table <- Bytes.empty;
  Ids.push starts (Ids.length targets);
  Array.iteri
    (fun i r ->
      if Option.is_none r then
        match props.(i) with
        | Protocol.Safety _ | Protocol.Step _ -> resolve i Holds
        | Protocol.Liveness { q_goal; _ } ->
          (* Every reachable state must be able to reach a goal state. *)
          let ok =
            reaches_goal n starts targets (fun id ->
                decode seen id cur;
                q_goal model cur)
          in
          let wedged = ref (-1) in
          for id = n - 1 downto 0 do
            if Bytes.get ok id = '\000' then wedged := id
          done;
          if !wedged < 0 then resolve i Holds
          else begin
            decode seen !wedged cur;
            resolve i
              (Violated
                 { x_steps = path_to model parents !wedged;
                   x_why = "wedged: no path to a quiesced/goal state";
                   x_state = Protocol.describe model cur })
          end)
    reports;
  Array.to_list (Array.map Option.get reports)

let check_all ?domains ?max_states ?only models =
  let models =
    match only with
    | None -> models
    | Some n -> List.filter (fun (m, _) -> Protocol.name m = n) models
  in
  List.concat
    (Engine.Runner.map ?domains (fun (m, props) -> check_model ?max_states m props) models)

let clean reports = List.for_all (fun r -> r.r_verdict = Holds) reports

type fixture_report = {
  f_name : string;
  f_expect : string list;
  f_found : string list;
  f_missing : string list;
  f_unexpected : string list;
  f_reports : report list;
}

let check_fixture ~name ~expect (model, props) =
  let reports = check_model model props in
  let found =
    List.filter_map
      (fun r -> match r.r_verdict with Violated _ -> Some r.r_property | _ -> None)
      reports
  in
  let missing = List.filter (fun e -> not (List.mem e found)) expect in
  let unexpected = List.filter (fun f -> not (List.mem f expect)) found in
  { f_name = name; f_expect = expect; f_found = found; f_missing = missing;
    f_unexpected = unexpected; f_reports = reports }

let fixtures_ok fixtures =
  List.for_all (fun f -> f.f_missing = [] && f.f_unexpected = []) fixtures

(* -- model fidelity -- *)

let replay model steps =
  (* Real transition logs carry no clock events, so when a step is
     only enabled past a deadline we stutter through "tick" system
     transitions (bounded by the model's clock range) before giving
     up on it. *)
  let find st role label =
    List.find_opt
      (fun (r, l, _) -> r = role && l = label)
      (Protocol.successors model st)
  in
  let rec advance st role label ticks =
    match find st role label with
    | Some (_, _, st') -> Some st'
    | None when ticks > 0 -> (
      match find st "" "tick" with
      | Some (_, _, st') -> advance st' role label (ticks - 1)
      | None -> None)
    | None -> None
  in
  let rec go st n = function
    | [] -> Ok ()
    | (role, label) :: rest -> (
      match advance st role label (Protocol.spec model).Protocol.Spec.p_clock_max with
      | Some st' -> go st' (n + 1) rest
      | None ->
        let succs = Protocol.successors model st in
        Error
          (Printf.sprintf
             "step %d: model cannot take %s:%s (enabled: %s) in state %s" n role label
             (String.concat ", " (List.map (fun (r, l, _) -> r ^ ":" ^ l) succs))
             (Protocol.describe model st)))
  in
  go (Protocol.init model) 0 steps

(* Deterministic LCG so walks never depend on host Random state. *)
let lcg x = ((x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF

let random_walk model ~seed ~steps =
  let rec go st rng n acc =
    if n >= steps then (List.rev acc, None)
    else
      match Protocol.successors model st with
      | [] -> (List.rev acc, None)
      | succs ->
        let rng = lcg rng in
        let role, label, st' = List.nth succs (rng mod List.length succs) in
        go st' rng (n + 1) ((role, label) :: acc)
  in
  go (Protocol.init model) (lcg (seed + 1)) 0 []

let walk_violates model props ~seed ~steps =
  let bad st =
    List.fold_left
      (fun acc p ->
        match (acc, p) with
        | Some _, _ -> acc
        | None, Protocol.Safety { q_bad; _ } -> q_bad model st
        | None, _ -> None)
      None props
  in
  let bad_step st role label =
    List.fold_left
      (fun acc p ->
        match (acc, p) with
        | Some _, _ -> acc
        | None, Protocol.Step { q_bad; _ } -> q_bad model ~role ~label st
        | None, _ -> None)
      None props
  in
  let rec go st rng n =
    match bad st with
    | Some why -> Some why
    | None ->
      if n >= steps then None
      else
        match Protocol.successors model st with
        | [] -> None
        | succs -> (
          let rng = lcg rng in
          let role, label, st' = List.nth succs (rng mod List.length succs) in
          match bad_step st role label with
          | Some why -> Some why
          | None -> go st' rng (n + 1))
  in
  go (Protocol.init model) (lcg (seed + 1)) 0

(* -- witness lowering -- *)

type lowering = {
  l_fixture : string;
  l_scenario : string;
  l_rule : string;
  l_confirmed : bool;
  l_replay_ok : bool;
  l_schedule_len : int;
}

(* -- deterministic JSON -- *)

open Engine.Text

let verdict_json = function
  | Holds -> "\"holds\""
  | Out_of_bounds -> "\"out-of-bounds\""
  | Violated cex ->
    Printf.sprintf
      "{ \"violated\": { \"why\": \"%s\", \"state\": \"%s\", \"trace\": %s } }"
      (json_escape cex.x_why) (json_escape cex.x_state)
      (json_string_list (List.map (fun (r, l) -> (if r = "" then "" else r ^ ":") ^ l) cex.x_steps))

let report_json indent r =
  let pad = String.make indent ' ' in
  String.concat ",\n"
    [ Printf.sprintf "%s\"model\": \"%s\"" pad (json_escape r.r_model);
      Printf.sprintf "%s\"property\": \"%s\"" pad (json_escape r.r_property);
      Printf.sprintf "%s\"desc\": \"%s\"" pad (json_escape r.r_desc);
      Printf.sprintf "%s\"states\": %d" pad r.r_states;
      Printf.sprintf "%s\"edges\": %d" pad r.r_edges;
      Printf.sprintf "%s\"verdict\": %s" pad (verdict_json r.r_verdict) ]

let to_json ~shipped ~fixtures ~lowered =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"proto_check\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"shipped_clean\": %b,\n" (clean shipped));
  Buffer.add_string buf
    (Printf.sprintf "    \"fixtures_detected\": %b,\n" (fixtures_ok fixtures));
  Buffer.add_string buf "    \"shipped\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map (fun r -> "      {\n" ^ report_json 8 r ^ "\n      }") shipped));
  Buffer.add_string buf "\n    ],\n    \"fixtures\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun f ->
            String.concat "\n"
              [ "      {";
                Printf.sprintf "        \"fixture\": \"%s\"," (json_escape f.f_name);
                Printf.sprintf "        \"expect\": %s," (json_string_list f.f_expect);
                Printf.sprintf "        \"found\": %s," (json_string_list f.f_found);
                Printf.sprintf "        \"missing\": %s," (json_string_list f.f_missing);
                "        \"properties\": [";
                String.concat ",\n"
                  (List.map (fun r -> "          {\n" ^ report_json 12 r ^ "\n          }")
                     f.f_reports);
                "        ]";
                "      }" ])
          fixtures));
  Buffer.add_string buf "\n    ],\n    \"lowered\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun l ->
            String.concat "\n"
              [ "      {";
                Printf.sprintf "        \"fixture\": \"%s\"," (json_escape l.l_fixture);
                Printf.sprintf "        \"scenario\": \"%s\"," (json_escape l.l_scenario);
                Printf.sprintf "        \"rule\": \"%s\"," (json_escape l.l_rule);
                Printf.sprintf "        \"confirmed\": %b," l.l_confirmed;
                Printf.sprintf "        \"replay_ok\": %b," l.l_replay_ok;
                Printf.sprintf "        \"schedule_len\": %d" l.l_schedule_len;
                "      }" ])
          lowered));
  Buffer.add_string buf "\n    ]\n  }\n}\n";
  Buffer.contents buf
