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

(* Growable flat vector. *)
type 'a vec = { mutable buf : 'a array; mutable len : int }

let vec_make dummy = { buf = Array.make 1024 dummy; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let buf = Array.make (2 * v.len) v.buf.(0) in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* The seen-set. Ids are BFS discovery order, which doubles as the
   deterministic tiebreak (the earliest wedged state is the one
   reported). State [id] is the bytes [offs.(id)] .. [offs.(id + 1)]
   of one arena; the table maps a hash to ids by linear probing
   (-1 = empty) and is kept at most half full. The hash only places
   ids in the table, so it orders nothing. A candidate is encoded at
   the arena's tail and committed only when no equal bytes are
   already there. *)
type seen = {
  mutable arena : Bytes.t;
  offs : int vec;  (* one entry per state, plus the arena's end *)
  hashes : int vec;  (* one entry per state *)
  mutable table : int array;
}

let seen_make () =
  let offs = vec_make 0 in
  vec_push offs 0;
  { arena = Bytes.create 65536; offs; hashes = vec_make 0; table = Array.make 2048 (-1) }

let count s = s.hashes.len

let rehash s =
  let table = Array.make (2 * Array.length s.table) (-1) in
  let mask = Array.length table - 1 in
  for id = 0 to count s - 1 do
    let i = ref (s.hashes.buf.(id) land mask) in
    while table.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    table.(!i) <- id
  done;
  s.table <- table

(* The id of [st], adding it when new (then [count s] grows). *)
let intern s st =
  let pos = s.offs.buf.(count s) in
  let need = pos + (max_varint * Array.length st) in
  if need > Bytes.length s.arena then begin
    let a = Bytes.create (2 * need) in
    Bytes.blit s.arena 0 a 0 pos;
    s.arena <- a
  end;
  let stop = put_state s.arena pos st in
  let len = stop - pos in
  let h = hash_bytes s.arena pos len in
  let offs = s.offs.buf and mask = Array.length s.table - 1 in
  let rec probe i =
    let id = s.table.(i) in
    if id < 0 then begin
      let id = count s in
      s.table.(i) <- id;
      vec_push s.hashes h;
      vec_push s.offs stop;
      if 2 * count s > Array.length s.table then rehash s;
      id
    end
    else if
      s.hashes.buf.(id) = h
      && offs.(id + 1) - offs.(id) = len
      && same_bytes s.arena offs.(id) pos len
    then id
    else probe ((i + 1) land mask)
  in
  probe (h land mask)

let decode s id dst = get_state s.arena s.offs.buf.(id) dst

(* Parent pointers, one entry per state: the predecessor (-1 for the
   initial state) and the transition taken from it. *)
type parents = { p_pred : int vec; p_role : string vec; p_label : string vec }

(* Reconstruct the (role, label) path from the initial state to [id]. *)
let path_to ps id =
  let rec go acc id =
    let pred = ps.p_pred.buf.(id) in
    if pred < 0 then acc else go ((ps.p_role.buf.(id), ps.p_label.buf.(id)) :: acc) pred
  in
  go [] id

(* Backward reachability over CSR successor lists ([starts.(id)] ..
   [starts.(id + 1)] index [targets]): the ids [goal] holds on, and
   every id that reaches one, are ok. *)
let reaches_goal n starts targets goal =
  let m = starts.(n) in
  let pstart = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    pstart.(targets.(e) + 1) <- pstart.(targets.(e) + 1) + 1
  done;
  for id = 1 to n do
    pstart.(id) <- pstart.(id) + pstart.(id - 1)
  done;
  let fill = Array.sub pstart 0 n in
  let preds = Array.make m 0 in
  for id = 0 to n - 1 do
    for e = starts.(id) to starts.(id + 1) - 1 do
      let t = targets.(e) in
      preds.(fill.(t)) <- id;
      fill.(t) <- fill.(t) + 1
    done
  done;
  let ok = Array.make n false in
  let queue = Array.make n 0 and tail = ref 0 in
  for id = 0 to n - 1 do
    if goal id then begin
      ok.(id) <- true;
      queue.(!tail) <- id;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let id = queue.(!head) in
    incr head;
    for e = pstart.(id) to pstart.(id + 1) - 1 do
      let p = preds.(e) in
      if not ok.(p) then begin
        ok.(p) <- true;
        queue.(!tail) <- p;
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
  let props = Array.of_list props in
  let reports = Array.make (Array.length props) None in
  let unresolved = ref (Array.length props) in
  let init = Protocol.init model in
  let seen = seen_make () in
  let parents = { p_pred = vec_make 0; p_role = vec_make ""; p_label = vec_make "" } in
  (* Forward adjacency in CSR form, only kept for liveness (the
     backward pass). States are expanded in id order, so [starts]
     gets one entry per expansion. *)
  let keep_edges = Array.exists (function Protocol.Liveness _ -> true | _ -> false) props in
  let starts = vec_make 0 and targets = vec_make 0 in
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
  let is_new id pred role label =
    let fresh = id = parents.p_pred.len in
    if fresh then begin
      vec_push parents.p_pred pred;
      vec_push parents.p_role role;
      vec_push parents.p_label label
    end;
    fresh
  in
  (* A new state: judge it, then apply the bound. *)
  let judge_state id st =
    List.iter
      (fun (i, q_bad) ->
        match q_bad model st with
        | Some why ->
          resolve i
            (Violated
               { x_steps = path_to parents id; x_why = why;
                 x_state = Protocol.describe model st })
        | None -> ())
      !safety;
    if count seen >= max_states then
      Array.iteri (fun i r -> if Option.is_none r then resolve i Out_of_bounds) reports;
    stop_when_resolved ()
  in
  let judge_step pre_id pre role label =
    List.iter
      (fun (i, q_bad) ->
        match q_bad model ~role ~label pre with
        | Some why ->
          resolve i
            (Violated
               { x_steps = path_to parents pre_id @ [ (role, label) ]; x_why = why;
                 x_state = Protocol.describe model pre })
        | None -> ())
      !steps;
    stop_when_resolved ()
  in
  (* The queue is the id counter: every interned state is expanded, in
     discovery order. *)
  let next = ref 0 in
  (try
     stop_when_resolved ();
     ignore (is_new (intern seen init) (-1) "" "");
     judge_state 0 init;
     while !next < count seen do
       let id = !next in
       incr next;
       decode seen id cur;
       if keep_edges then vec_push starts targets.len;
       Protocol.iter_successors model cur (fun role label st' ->
           incr edges;
           if !steps != [] then judge_step id cur role label;
           let id' = intern seen st' in
           if keep_edges then vec_push targets id';
           if is_new id' id role label then judge_state id' st')
     done
   with Exit -> ());
  (* A property still open has seen the whole graph: it holds, unless
     it is a liveness property with a wedged state. *)
  let n = count seen in
  vec_push starts targets.len;
  Array.iteri
    (fun i r ->
      if Option.is_none r then
        match props.(i) with
        | Protocol.Safety _ | Protocol.Step _ -> resolve i Holds
        | Protocol.Liveness { q_goal; _ } ->
          (* Every reachable state must be able to reach a goal state. *)
          let ok =
            reaches_goal n starts.buf targets.buf (fun id ->
                decode seen id cur;
                q_goal model cur)
          in
          let wedged = ref (-1) in
          for id = n - 1 downto 0 do
            if not ok.(id) then wedged := id
          done;
          if !wedged < 0 then resolve i Holds
          else begin
            decode seen !wedged cur;
            resolve i
              (Violated
                 { x_steps = path_to parents !wedged;
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
