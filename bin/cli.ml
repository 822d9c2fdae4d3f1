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
     to \\$REPRO_STORE when set, else to $(i,DIR)/store.jsonl when --csv-dir is \
     given; without either, no records are stored."
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
    Fleet.Sink.resolve_store ~flag:store ~env:(Sys.getenv_opt "REPRO_STORE") ~csv_dir
  in
  { Fleet.Sink.csv_dir; store }

let common = Term.(const setup $ csv_dir $ domains $ store)

(* Where run/view look for the store when no flag names one. *)
let store_path (c : Fleet.Sink.t) = Option.value c.store ~default:"results/store.jsonl"
