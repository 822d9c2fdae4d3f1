(* Flag handling shared by every repro subcommand, so --csv-dir,
   --domains, --only and --store cannot drift between commands. *)

open Cmdliner

let csv_dir =
  let doc = "Also write figure data / result JSON into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)

let domains =
  let doc =
    "Host cores (OCaml domains) used to run independent simulations in parallel. \
     Defaults to every available core; 1 forces fully sequential execution. The \
     simulated results are identical at any value."
  in
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N" ~doc)

let only =
  let doc = "Restrict the command to the scenario/spec/model/object named $(docv)." in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAME" ~doc)

let store =
  let doc =
    "Append one result record per produced artifact to this JSONL store. Defaults \
     to $(i,DIR)/store.jsonl when --csv-dir is given (or \\$REPRO_STORE when set); \
     without either, no records are stored."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

(* The flag sets the process-wide Runner default, so every experiment
   below — including ones reached through code without an explicit
   [?domains] argument — honours it. *)
let set_domains n = if n > 0 then Engine.Runner.set_default_domains n

(* The sink every artifact of the command goes through. *)
let setup csv_dir domains store =
  set_domains domains;
  let store =
    match (store, csv_dir) with
    | Some s, _ -> Some s
    | None, Some dir -> Some (Fleet.Sink.default_store ~csv_dir:dir)
    | None, None -> (
      match Sys.getenv_opt "REPRO_STORE" with
      | Some p when p <> "" -> Some p
      | _ -> None)
  in
  { Fleet.Sink.csv_dir; store }

let common = Term.(const setup $ csv_dir $ domains $ store)

(* Where run/view look for the store when no flag names one. *)
let store_path (c : Fleet.Sink.t) =
  match c.store with
  | Some s -> s
  | None ->
    Fleet.Sink.default_store ~csv_dir:(Option.value c.csv_dir ~default:"results")
