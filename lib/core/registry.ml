type stats = {
  samples : int;
  policy_runs : int;
  adaptations : int;
  total_cost : Cost.t;
  last_label : string option;
  log : (int * string) list;
}

type metrics = {
  id : int;
  stats : stats;
  spec : Policy.Spec.t;
}

type entry = {
  e_id : int;
  e_stats : unit -> stats;
  e_spec : Policy.Spec.t;
}

(* Per-domain state, like [Ops.annotations_flag]: each simulation runs
   entirely on one host domain, so domain-local registration keeps
   concurrent Engine.Runner simulations from interleaving their
   objects, and registration order — hence snapshot order — stays the
   deterministic object-creation order of the run. *)
type state = { mutable entries : entry list (* newest first *); mutable next_id : int }

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { entries = []; next_id = 0 })

let state () = Domain.DLS.get state_key

let reset () =
  let st = state () in
  st.entries <- [];
  st.next_id <- 0

(* Entries hold closures over a specific machine's [Memory.addr]s, so
   an entry surviving into the next simulation on the same domain
   would issue Ops against an unrelated heap. Resetting at every run
   start makes the registry per-run by construction — no caller has to
   remember to do it. *)
let () = Butterfly.Sched.at_run_start reset

let register ~spec ~stats =
  let st = state () in
  let id = st.next_id in
  st.next_id <- id + 1;
  st.entries <- { e_id = id; e_stats = stats; e_spec = spec } :: st.entries

let entries () = List.rev (state ()).entries

let snapshot () =
  List.map
    (fun e ->
      { id = e.e_id; stats = e.e_stats (); spec = e.e_spec })
    (entries ())

(* Formal check (§3.1) of the recorded Ψ log against the declared
   configuration space. *)
let validate_log m = Policy.Spec.check_log m.spec m.stats.log

(* -- deterministic JSON (hand-rolled, like Chaos.to_json: stable
   bytes, no host state) -- *)

open Engine.Text

let metrics_json m =
  let log =
    String.concat ", "
      (List.map
         (fun (t, label) ->
           Printf.sprintf "{ \"t\": %d, \"label\": \"%s\" }" t (json_escape label))
         m.stats.log)
  in
  String.concat ",\n"
    [
      Printf.sprintf "      \"id\": %d" m.id;
      Printf.sprintf "      \"name\": \"%s\"" (json_escape m.spec.s_name);
      Printf.sprintf "      \"kind\": \"%s\"" (json_escape m.spec.s_kind);
      Printf.sprintf "      \"samples\": %d" m.stats.samples;
      Printf.sprintf "      \"policy_runs\": %d" m.stats.policy_runs;
      Printf.sprintf "      \"adaptations\": %d" m.stats.adaptations;
      Printf.sprintf
        "      \"total_cost\": { \"reads\": %d, \"writes\": %d, \"instrs\": %d }"
        m.stats.total_cost.Cost.reads m.stats.total_cost.Cost.writes
        m.stats.total_cost.Cost.instrs;
      Printf.sprintf "      \"last_label\": %s"
        (match m.stats.last_label with
        | None -> "null"
        | Some l -> Printf.sprintf "\"%s\"" (json_escape l));
      Printf.sprintf "      \"log\": [%s]" log;
      Printf.sprintf "      \"policy_valid\": %s"
        (match validate_log m with Ok () -> "true" | Error _ -> "false");
      Printf.sprintf "      \"policy_violation\": %s"
        (match validate_log m with
        | Error why -> Printf.sprintf "\"%s\"" (json_escape why)
        | Ok () -> "null");
    ]

let to_json ms =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"objects\": %d,\n" (List.length ms));
  Buffer.add_string buf
    (Printf.sprintf "  \"adaptations\": %d,\n"
       (List.fold_left (fun n m -> n + m.stats.adaptations) 0 ms));
  Buffer.add_string buf "  \"registry\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun m -> "    {\n" ^ metrics_json m ^ "\n    }") ms));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
