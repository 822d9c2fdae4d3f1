(* Small-step protocol IR + explicit-state semantics. See the .mli
   for the model: roles, shared words, guarded atomic rules, generated
   crash transitions and an abstract clock. Everything is deterministic
   — successor order is declaration order — so the checker's state
   counts and counterexamples are stable bytes. *)

module Spec = struct
  type flavor = Holder | Swapper | Spinning | Queued | Sleeping | Timed | Monitor

  type role = {
    r_name : string;
    r_flavor : flavor;
    r_crashable : bool;
    r_locals : (string * int) list;
  }

  type expr =
    | K of int
    | S of string
    | L of string
    | Me
    | Clock
    | Status of string
    | Add of expr * expr
    | Sub of expr * expr

  type cmp = Eq | Ne | Lt | Le | Gt | Ge

  type guard = T | C of cmp * expr * expr | All of guard list | Any of guard list | Not of guard

  type act =
    | Read of string * string
    | Write of string * expr
    | Set of string * expr
    | If of guard * act list * act list
    | Unpark of string

  type rule = {
    u_role : string;
    u_from : int;
    u_label : string;
    u_guard : guard;
    u_acts : act list;
    u_to : int;
    u_park : bool;
    u_done : bool;
    u_timeout : bool;
  }

  let rule ~role ~from_ ?(park = false) ?(done_ = false) ?(timeout = false) ?(guard = T)
      ?(acts = []) ~label u_to =
    { u_role = role; u_from = from_; u_label = label; u_guard = guard; u_acts = acts;
      u_to; u_park = park; u_done = done_; u_timeout = timeout }

  let cas w ~expect ~set = (C (Eq, S w, expect), Write (w, set))

  type t = {
    p_name : string;
    p_shared : (string * int) list;
    p_roles : role list;
    p_rules : rule list;
    p_crash_budget : int;
    p_clock_max : int;
  }
end

exception Ill_formed of string

let ill fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* Compiled forms: every name resolved to a slot of the flat state
   (see [state] below), so evaluation during exploration never touches
   a string. The acting role's id ([Me]) is a constant by then. *)

type cexpr = CK of int | CV of int | CAdd of cexpr * cexpr | CSub of cexpr * cexpr

type cguard =
  | CT
  | CC of Spec.cmp * cexpr * cexpr
  | CAll of cguard list
  | CAny of cguard list
  | CNot of cguard

type cact =
  | CPut of int * cexpr  (* slot := e (a shared word or a local) *)
  | CIf of cguard * cact list * cact list
  | CUnpark of int * int  (* the woken role's status slot and wake slot *)

type crule = {
  c_pc : int;  (* the acting role's pc, status and wake slots *)
  c_st : int;
  c_wk : int;
  c_from : int;
  c_guard : cguard;
  c_acts : cact list;
  c_to : int;
  c_park : bool;
  c_done : bool;
}

(* A state is one flat int array, laid out at [compile] as
   [clk; cr; shared...; pcs...; statuses...; wake bits...; locals...]
   with each role's locals contiguous. *)
type state = int array
type slot = int

let o_clk = 0
let o_cr = 1
let o_sh = 2

type t = {
  t_spec : Spec.t;
  t_shared_names : string array;
  t_role_names : string array;
  t_crashable : bool array;
  t_local_names : string array array;
  t_o_pc : int;
  t_o_st : int;
  t_o_wk : int;
  t_o_loc : int array;  (* first local slot of each role *)
  t_init : state;
  t_rules : crule array;  (* declaration order: rule [i] is edge code [i] *)
  t_by_pc : int list array array;
      (* per role, per pc: the indices of the rules firing from it, ascending *)
  t_edges : (string * string) array;  (* (role, label) of every edge code *)
}

(* status codes *)
let st_running = 0
let st_parked = 1
let st_crashed = 2
let st_done = 3

type status = Running | Parked | Crashed | Done

let status_of_code = function
  | 0 -> Running
  | 1 -> Parked
  | 2 -> Crashed
  | _ -> Done

let index_of what names n =
  let rec go i = if i >= Array.length names then ill "%s: unknown name %s" what n
    else if names.(i) = n then i else go (i + 1)
  in
  go 0

let check_dups what names =
  Array.iteri
    (fun i n ->
      Array.iteri (fun j m -> if i < j && n = m then ill "%s: duplicate name %s" what n) names)
    names

let compile (s : Spec.t) : t =
  if s.Spec.p_roles = [] then ill "protocol %s: no roles" s.Spec.p_name;
  if s.Spec.p_crash_budget < 0 then ill "protocol %s: negative crash budget" s.Spec.p_name;
  if s.Spec.p_clock_max < 0 then ill "protocol %s: negative clock bound" s.Spec.p_name;
  let shared_names = Array.of_list (List.map fst s.Spec.p_shared) in
  let role_names = Array.of_list (List.map (fun r -> r.Spec.r_name) s.Spec.p_roles) in
  let crashable = Array.of_list (List.map (fun r -> r.Spec.r_crashable) s.Spec.p_roles) in
  let local_names =
    Array.of_list (List.map (fun r -> Array.of_list (List.map fst r.Spec.r_locals)) s.Spec.p_roles)
  in
  check_dups s.Spec.p_name shared_names;
  check_dups s.Spec.p_name role_names;
  Array.iter (check_dups s.Spec.p_name) local_names;
  let nroles = Array.length role_names in
  let o_pc = o_sh + Array.length shared_names in
  let o_st = o_pc + nroles in
  let o_wk = o_st + nroles in
  let o_loc = Array.make nroles 0 in
  let width = ref (o_wk + nroles) in
  Array.iteri (fun r ls -> o_loc.(r) <- !width; width := !width + Array.length ls) local_names;
  let init = Array.make !width 0 in
  List.iteri (fun i (_, v) -> init.(o_sh + i) <- v) s.Spec.p_shared;
  List.iteri
    (fun r role -> List.iteri (fun j (_, v) -> init.(o_loc.(r) + j) <- v) role.Spec.r_locals)
    s.Spec.p_roles;
  let shared_ix n = o_sh + index_of (s.Spec.p_name ^ " shared") shared_names n in
  let role_ix n = index_of (s.Spec.p_name ^ " role") role_names n in
  let local_ix role n = o_loc.(role) + index_of (s.Spec.p_name ^ " local") local_names.(role) n in
  let rec cexpr role = function
    | Spec.K v -> CK v
    | Spec.S n -> CV (shared_ix n)
    | Spec.L n -> CV (local_ix role n)
    | Spec.Me -> CK (role + 1)
    | Spec.Clock -> CV o_clk
    | Spec.Status n -> CV (o_st + role_ix n)
    | Spec.Add (a, b) -> CAdd (cexpr role a, cexpr role b)
    | Spec.Sub (a, b) -> CSub (cexpr role a, cexpr role b)
  in
  let rec cguard role = function
    | Spec.T -> CT
    | Spec.C (c, a, b) -> CC (c, cexpr role a, cexpr role b)
    | Spec.All gs -> CAll (List.map (cguard role) gs)
    | Spec.Any gs -> CAny (List.map (cguard role) gs)
    | Spec.Not g -> CNot (cguard role g)
  in
  let rec cact role = function
    | Spec.Read (l, w) -> CPut (local_ix role l, CV (shared_ix w))
    | Spec.Write (w, e) -> CPut (shared_ix w, cexpr role e)
    | Spec.Set (l, e) -> CPut (local_ix role l, cexpr role e)
    | Spec.If (g, a, b) -> CIf (cguard role g, List.map (cact role) a, List.map (cact role) b)
    | Spec.Unpark n ->
      let r = role_ix n in
      CUnpark (o_st + r, o_wk + r)
  in
  let crule (u : Spec.rule) =
    let role = role_ix u.Spec.u_role in
    if u.Spec.u_park && u.Spec.u_done then
      ill "%s rule %s: park and done are exclusive" s.Spec.p_name u.Spec.u_label;
    if u.Spec.u_from < 0 then ill "%s rule %s: negative pc" s.Spec.p_name u.Spec.u_label;
    { c_pc = o_pc + role; c_st = o_st + role; c_wk = o_wk + role; c_from = u.Spec.u_from;
      c_guard = cguard role u.Spec.u_guard; c_acts = List.map (cact role) u.Spec.u_acts;
      c_to = u.Spec.u_to; c_park = u.Spec.u_park; c_done = u.Spec.u_done }
  in
  let rules = Array.of_list (List.map crule s.Spec.p_rules) in
  (* The per-pc index: each role's rule indices bucketed by the pc they
     fire from, filled from the last rule back so every bucket is
     ascending. *)
  let top = Array.make nroles (-1) in
  Array.iter (fun r -> top.(r.c_pc - o_pc) <- max top.(r.c_pc - o_pc) r.c_from) rules;
  let by_pc = Array.map (fun m -> Array.make (m + 1) []) top in
  for i = Array.length rules - 1 downto 0 do
    let r = rules.(i) in
    let b = by_pc.(r.c_pc - o_pc) in
    b.(r.c_from) <- i :: b.(r.c_from)
  done;
  let edges =
    Array.concat
      [ Array.of_list (List.map (fun u -> (u.Spec.u_role, u.Spec.u_label)) s.Spec.p_rules);
        Array.map (fun n -> (n, "crash")) role_names;
        [| ("", "tick") |] ]
  in
  { t_spec = s; t_shared_names = shared_names; t_role_names = role_names;
    t_crashable = crashable; t_local_names = local_names; t_o_pc = o_pc; t_o_st = o_st;
    t_o_wk = o_wk; t_o_loc = o_loc; t_init = init; t_rules = rules; t_by_pc = by_pc;
    t_edges = edges }

let name t = t.t_spec.Spec.p_name
let spec t = t.t_spec
let role_names t = Array.to_list t.t_role_names
let init t = Array.copy t.t_init

let rec eval st = function
  | CK v -> v
  | CV i -> st.(i)
  | CAdd (a, b) -> eval st a + eval st b
  | CSub (a, b) -> eval st a - eval st b

let rec holds st = function
  | CT -> true
  | CC (c, a, b) -> (
    let x = eval st a and y = eval st b in
    match c with
    | Spec.Eq -> x = y
    | Spec.Ne -> x <> y
    | Spec.Lt -> x < y
    | Spec.Le -> x <= y
    | Spec.Gt -> x > y
    | Spec.Ge -> x >= y)
  | CAll gs -> all st gs
  | CAny gs -> any st gs
  | CNot g -> not (holds st g)

and all st = function [] -> true | g :: gs -> holds st g && all st gs
and any st = function [] -> false | g :: gs -> holds st g || any st gs

(* Actions mutate the successor in order: later actions observe
   earlier writes within the same atomic rule. *)
let rec apply_acts st = function
  | [] -> ()
  | a :: rest ->
    (match a with
    | CPut (i, e) -> st.(i) <- eval st e
    | CIf (g, a, b) -> apply_acts st (if holds st g then a else b)
    | CUnpark (s, w) ->
      (* Sticky wakeups: waking a parked role resumes it; waking a
         running role leaves a token its next park consumes. Crashed
         and finished roles ignore wakeups. *)
      if st.(s) = st_parked then st.(s) <- st_running
      else if st.(s) = st_running then st.(w) <- 1);
    apply_acts st rest

let edge t code = t.t_edges.(code)

(* Every successor is built in one scratch array, reset from [st]
   before each. [iter_successors t] allocates the scratch and the
   bucket heads once and returns the iterator that owns them, so an
   exploration that applies it once allocates nothing per state, and
   concurrent explorations of one model, each with its own iterator,
   share nothing. The reset is a plain loop: once the scratch is old
   enough to be promoted, [Array.blit] would go through [caml_modify]
   for every element. The rules that can fire are those of a running
   role's current pc: the iterator merges those buckets by rule index,
   which is declaration order, instead of testing every rule. *)
let iter_successors t =
  let n = Array.length t.t_init in
  let sc = Array.make n 0 in
  let nroles = Array.length t.t_role_names in
  let heads = Array.make nroles [] in
  let reset st =
    for i = 0 to n - 1 do
      sc.(i) <- st.(i)
    done
  in
  fun st f ->
    for r = 0 to nroles - 1 do
      let b = t.t_by_pc.(r) and pc = st.(t.t_o_pc + r) in
      heads.(r) <-
        (if st.(t.t_o_st + r) = st_running && pc >= 0 && pc < Array.length b then b.(pc)
         else [])
    done;
    let more = ref true in
    while !more do
      let best = ref (-1) and code = ref max_int in
      for r = 0 to nroles - 1 do
        match heads.(r) with i :: _ when i < !code -> best := r; code := i | _ -> ()
      done;
      if !best < 0 then more := false
      else begin
        heads.(!best) <- List.tl heads.(!best);
        let r = t.t_rules.(!code) in
        if holds st r.c_guard then begin
          reset st;
          apply_acts sc r.c_acts;
          sc.(r.c_pc) <- r.c_to;
          if r.c_done then sc.(r.c_st) <- st_done
          else if r.c_park then begin
            if sc.(r.c_wk) = 1 then sc.(r.c_wk) <- 0 else sc.(r.c_st) <- st_parked
          end;
          f !code sc
        end
      end
    done;
    let nrules = Array.length t.t_rules in
    if st.(o_cr) < t.t_spec.Spec.p_crash_budget then
      for i = 0 to nroles - 1 do
        let s = st.(t.t_o_st + i) in
        if t.t_crashable.(i) && (s = st_running || s = st_parked) then begin
          reset st;
          sc.(t.t_o_st + i) <- st_crashed;
          sc.(o_cr) <- st.(o_cr) + 1;
          f (nrules + i) sc
        end
      done;
    if st.(o_clk) < t.t_spec.Spec.p_clock_max then begin
      reset st;
      sc.(o_clk) <- st.(o_clk) + 1;
      f (nrules + nroles) sc
    end

let successors t st =
  let out = ref [] in
  iter_successors t st (fun code st' ->
      let role, label = edge t code in
      out := (role, label, Array.copy st') :: !out);
  List.rev !out

(* -- slots and accessors -- *)

let shared_slot t n = o_sh + index_of "shared" t.t_shared_names n
let role_ix t rn = index_of "role" t.t_role_names rn

let local_slot t rn n =
  let r = role_ix t rn in
  t.t_o_loc.(r) + index_of "local" t.t_local_names.(r) n

let pc_slot t rn = t.t_o_pc + role_ix t rn
let status_slot t rn = t.t_o_st + role_ix t rn
let wake_slot t rn = t.t_o_wk + role_ix t rn
let get (st : state) (s : slot) = st.(s)
let status_at st s = status_of_code st.(s)

let describe t st =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "clk=%d cr=%d" st.(o_clk) st.(o_cr));
  Array.iteri (fun i n -> Buffer.add_string b (Printf.sprintf " %s=%d" n st.(o_sh + i)))
    t.t_shared_names;
  Array.iteri
    (fun i rn ->
      let s =
        match status_of_code st.(t.t_o_st + i) with
        | Running -> "run"
        | Parked -> "parked"
        | Crashed -> "crashed"
        | Done -> "done"
      in
      Buffer.add_string b (Printf.sprintf " %s@%d:%s" rn st.(t.t_o_pc + i) s);
      if st.(t.t_o_wk + i) = 1 then Buffer.add_string b "+wake";
      Array.iteri
        (fun j ln -> Buffer.add_string b (Printf.sprintf "[%s=%d]" ln st.(t.t_o_loc.(i) + j)))
        t.t_local_names.(i))
    t.t_role_names;
  Buffer.contents b

type property =
  | Safety of { q_name : string; q_desc : string; q_bad : t -> state -> string option }
  | Step of {
      q_name : string;
      q_desc : string;
      q_bad : t -> role:string -> label:string -> state -> string option;
    }
  | Liveness of { q_name : string; q_desc : string; q_goal : t -> state -> bool }

let property_name = function
  | Safety { q_name; _ } | Step { q_name; _ } | Liveness { q_name; _ } -> q_name

let property_desc = function
  | Safety { q_desc; _ } | Step { q_desc; _ } | Liveness { q_desc; _ } -> q_desc
