module Vclock = Vclock
module Diag = Diag
module Trace = Trace
module Race = Race
module Lock_order = Lock_order
module Discipline = Discipline
module Causality = Causality
module Predict = Predict
module Witness = Witness
module Policy_check = Policy_check
module Proto_check = Proto_check
open Butterfly

type report = {
  diags : Diag.t list;
  events : int;
  accesses : int;
  aborted : string option;
}

let of_category c report = List.filter (fun d -> d.Diag.category = c) report.diags
let races report = of_category Diag.Race report
let cycles report = of_category Diag.Lock_order report
let lints report = of_category Diag.Discipline report
let clean report = report.diags = [] && report.aborted = None

let sanitize ~names trace =
  List.stable_sort Diag.compare
    (Race.run ~names trace @ Lock_order.run ~names trace @ Discipline.run ~names trace)

let check_trace cfg program =
  let sim = Sched.create cfg in
  let trace = Trace.attach sim in
  let aborted, abort_diag =
    match Sched.run sim program with
    | () -> (None, [])
    | exception Sched.Thread_crash (thread, Locks.Lock_core.Misuse msg) ->
      (* The runtime ownership check fired: fold it into the report
         instead of crashing the analyzer (the lint pass typically
         flags the same event from the annotation stream). *)
      ( Some (Printf.sprintf "thread %s crashed: %s" thread msg),
        [
          Diag.make ~category:Diag.Discipline ~rule:"unlock-not-held"
            ~time:(Sched.final_time sim) ~thread msg;
        ] )
    | exception Sched.Deadlock msg ->
      ( Some (Printf.sprintf "deadlock: %s" msg),
        [
          Diag.make ~category:Diag.Discipline ~rule:"deadlock"
            ~time:(Sched.final_time sim) ~thread:"(machine)"
            (Printf.sprintf "the run deadlocked: %s" msg);
        ] )
  in
  let names = Trace.thread_names sim in
  let diags = List.merge Diag.compare (sanitize ~names trace) abort_diag in
  ( {
      diags;
      events = Trace.events trace;
      accesses = Trace.accesses trace;
      aborted;
    },
    trace,
    names )

let check cfg program =
  let report, _, _ = check_trace cfg program in
  report

type predicted = {
  finding : Predict.prediction;
  rule : string;
  description : string;
  witness : Witness.result option;
}

type predictive = { observed : report; predictions : predicted list }

let check_predictive ?(confirm = false) cfg program =
  let observed, trace, names = check_trace cfg program in
  let predictions =
    List.map
      (fun p ->
        {
          finding = p;
          rule = Predict.rule p;
          description = Predict.describe ~names p;
          witness =
            (if confirm then Some (Witness.confirm cfg program trace p) else None);
        })
      (Predict.run trace)
  in
  { observed; predictions }

let confirmed pv =
  List.filter
    (fun p ->
      match p.witness with
      | Some w -> w.Witness.w_status = Witness.Confirmed
      | None -> false)
    pv.predictions

let summary report =
  Printf.sprintf "%d events, %d accesses: %d race(s), %d lock-order cycle(s), %d lint(s)%s"
    report.events report.accesses
    (List.length (races report))
    (List.length (cycles report))
    (List.length (lints report))
    (match report.aborted with None -> "" | Some msg -> Printf.sprintf " [aborted: %s]" msg)

let pp ppf report =
  Format.fprintf ppf "%s@." (summary report);
  List.iter (fun d -> Format.fprintf ppf "  %s@." (Diag.to_string d)) report.diags
