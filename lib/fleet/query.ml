type filter = {
  f_driver : string option;
  f_kind : string option;
  f_spec : string option;
  f_rev : string option;
  f_config : (string * string) list;
}

let no_filter =
  { f_driver = None; f_kind = None; f_spec = None; f_rev = None; f_config = [] }

type agg_op = Mean | Sum | Min | Max | Count
type group_key = By_driver | By_kind | By_rev | By_spec | By_config of string

type t =
  | Top of int * string * filter
  | Aggregate of agg_op * string * group_key option * filter
  | Regressions of string * float * filter
  | Catalogue_of of [ `Drivers | `Kinds | `Revs | `Specs ]

(* ------------------------------------------------------------------ *)
(* Metric polarity                                                    *)

let has_suffix s suf =
  let ns = String.length s and nf = String.length suf in
  ns >= nf && String.sub s (ns - nf) nf = suf

let higher_is_better name =
  let name = String.lowercase_ascii name in
  let has sub = Engine.Text.contains name sub in
  if has "per_sec" || has "improvement" then Some true
  else if
    has_suffix name "_ns" || has_suffix name "_us" || has_suffix name "_ms"
    || has_suffix name "_s" || has "wait" || has "fail" || has "block"
    || has "violation" || has "miss"
  then Some false
  else None

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)

let parse line =
  let tokens =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  in
  let ( let* ) = Result.bind in
  let split_where tokens =
    let rec go acc = function
      | [] -> (List.rev acc, [])
      | "where" :: rest -> (List.rev acc, rest)
      | t :: rest -> go (t :: acc) rest
    in
    go [] tokens
  in
  let filter_of clauses =
    List.fold_left
      (fun acc clause ->
        let* f = acc in
        match String.index_opt clause '=' with
        | None -> Error (Printf.sprintf "bad where clause %S (want key=value)" clause)
        | Some i ->
          let k = String.sub clause 0 i in
          let v = String.sub clause (i + 1) (String.length clause - i - 1) in
          Ok
            (match k with
            | "driver" -> { f with f_driver = Some v }
            | "kind" -> { f with f_kind = Some v }
            | "spec" -> { f with f_spec = Some v }
            | "rev" -> { f with f_rev = Some v }
            | _ -> { f with f_config = f.f_config @ [ (k, v) ] }))
      (Ok no_filter) clauses
  in
  let head, where = split_where tokens in
  let* filter = filter_of where in
  match head with
  | [ "top"; n; "by"; metric ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Ok (Top (n, metric, filter))
    | _ -> Error (Printf.sprintf "top: %S is not a positive count" n))
  | "regressions" :: "since" :: rev :: rest -> (
    match rest with
    | [] -> Ok (Regressions (rev, 5.0, filter))
    | [ "tolerance"; pct ] -> (
      match float_of_string_opt pct with
      | Some p when p >= 0. -> Ok (Regressions (rev, p, filter))
      | _ -> Error (Printf.sprintf "regressions: bad tolerance %S" pct))
    | _ -> Error "regressions: want `regressions since REV [tolerance PCT]`")
  | op :: rest
    when List.mem op [ "mean"; "sum"; "min"; "max"; "count" ] -> (
    let op_v =
      match op with
      | "mean" -> Mean
      | "sum" -> Sum
      | "min" -> Min
      | "max" -> Max
      | _ -> Count
    in
    let group_of = function
      | "driver" -> Ok By_driver
      | "kind" -> Ok By_kind
      | "rev" -> Ok By_rev
      | "spec" -> Ok By_spec
      | key when String.length key > 7 && String.sub key 0 7 = "config:" ->
        Ok (By_config (String.sub key 7 (String.length key - 7)))
      | key ->
        Error
          (Printf.sprintf
             "group by %S: want driver|kind|rev|spec|config:KEY" key)
    in
    match rest with
    | [ metric ] -> Ok (Aggregate (op_v, metric, None, filter))
    | [ metric; "group"; "by"; key ] ->
      let* g = group_of key in
      Ok (Aggregate (op_v, metric, Some g, filter))
    | _ -> Error (Printf.sprintf "%s: want `%s METRIC [group by KEY]`" op op))
  | [ "list"; what ] -> (
    match what with
    | "drivers" -> Ok (Catalogue_of `Drivers)
    | "kinds" -> Ok (Catalogue_of `Kinds)
    | "revs" -> Ok (Catalogue_of `Revs)
    | "specs" -> Ok (Catalogue_of `Specs)
    | _ -> Error (Printf.sprintf "list %S: want drivers|kinds|revs|specs" what))
  | [] -> Error "empty query"
  | _ ->
    Error
      (Printf.sprintf
         "cannot parse query %S (want `top N by METRIC`, `MEAN-OP METRIC [group by \
          KEY]`, `regressions since REV`, or `list WHAT`)"
         line)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)

let matches_filter f (r : Store.record) =
  let opt v = function None -> true | Some want -> v = want in
  let prefix v = function
    | None -> true
    | Some p ->
      String.length v >= String.length p && String.sub v 0 (String.length p) = p
  in
  opt r.Store.r_driver f.f_driver
  && opt r.Store.r_kind f.f_kind
  && opt r.Store.r_spec f.f_spec
  && prefix r.Store.r_rev f.f_rev
  && List.for_all
       (fun (k, v) -> List.assoc_opt k r.Store.r_config = Some v)
       f.f_config

let metric_matches pattern name =
  name = pattern || has_suffix name ("/" ^ pattern)

(* (record index, metric name, value) rows for one metric pattern.
   The per-record projection fans out across domains; the merge is
   input-ordered, so row order is independent of [domains]. *)
let metric_rows ?domains pattern records =
  let indexed = List.mapi (fun i r -> (i, r)) records in
  let per_record =
    Engine.Runner.map ?domains
      (fun (i, r) ->
        List.filter_map
          (fun (name, v) ->
            if metric_matches pattern name then Some (i, name, v) else None)
          r.Store.r_metrics)
      indexed
  in
  List.concat per_record

let short_rev rev = if String.length rev > 7 then String.sub rev 0 7 else rev

let config_cell (r : Store.record) =
  if r.Store.r_config = [] then "-"
  else
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) r.Store.r_config)

let value_cell = Jsonv.num_str

let render_table ?title headers rows =
  let t = Repro_stats.Table.create ~headers in
  Repro_stats.Table.add_rows t rows;
  Repro_stats.Table.render ?title t

let run_top ?domains records n metric filter =
  let records = List.filter (matches_filter filter) records in
  let rows = metric_rows ?domains metric records in
  let arr = Array.of_list records in
  let ascending = higher_is_better metric = Some false in
  let sorted =
    List.sort
      (fun (i1, n1, v1) (i2, n2, v2) ->
        let c = Float.compare v1 v2 in
        let c = if ascending then c else -c in
        if c <> 0 then c
        else
          let c = String.compare n1 n2 in
          if c <> 0 then c else compare i1 i2)
      rows
  in
  let top = List.filteri (fun i _ -> i < n) sorted in
  let table_rows =
    List.mapi
      (fun rank (i, name, v) ->
        let r = arr.(i) in
        [
          string_of_int (rank + 1);
          r.Store.r_driver;
          r.Store.r_kind;
          short_rev r.Store.r_rev;
          config_cell r;
          name;
          value_cell v;
        ])
      top
  in
  let direction = if ascending then "ascending" else "descending" in
  render_table
    ~title:
      (Printf.sprintf "top %d by %s (%s; %d candidate rows)" n metric direction
         (List.length rows))
    [ "#"; "driver"; "kind"; "rev"; "config"; "metric"; "value" ]
    table_rows

let agg_name = function
  | Mean -> "mean"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Count -> "count"

let group_cell key (r : Store.record) =
  match key with
  | By_driver -> r.Store.r_driver
  | By_kind -> r.Store.r_kind
  | By_rev -> short_rev r.Store.r_rev
  | By_spec -> if r.Store.r_spec = "" then "-" else r.Store.r_spec
  | By_config k -> (
    match List.assoc_opt k r.Store.r_config with Some v -> v | None -> "-")

let run_aggregate ?domains records op metric group filter =
  let records = List.filter (matches_filter filter) records in
  let arr = Array.of_list records in
  let rows =
    if op = Count && metric = "*" then List.mapi (fun i _ -> (i, "*", 1.)) records
    else metric_rows ?domains metric records
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, _, v) ->
      let g = match group with None -> "all" | Some key -> group_cell key arr.(i) in
      let prev = try Hashtbl.find tbl g with Not_found -> [] in
      Hashtbl.replace tbl g (v :: prev))
    rows;
  let groups =
    List.sort compare (Hashtbl.fold (fun g vs acc -> (g, List.rev vs) :: acc) tbl [])
  in
  let aggregate vs =
    let n = List.length vs in
    match op with
    | Count -> float_of_int n
    | Sum -> List.fold_left ( +. ) 0. vs
    | Mean -> List.fold_left ( +. ) 0. vs /. float_of_int (max 1 n)
    | Min -> List.fold_left Float.min (List.hd vs) (List.tl vs)
    | Max -> List.fold_left Float.max (List.hd vs) (List.tl vs)
  in
  let table_rows =
    List.map
      (fun (g, vs) ->
        [ g; value_cell (aggregate vs); string_of_int (List.length vs) ])
      groups
  in
  let group_hdr =
    match group with
    | None -> "group"
    | Some By_driver -> "driver"
    | Some By_kind -> "kind"
    | Some By_rev -> "rev"
    | Some By_spec -> "spec"
    | Some (By_config k) -> "config:" ^ k
  in
  render_table
    ~title:(Printf.sprintf "%s %s" (agg_name op) metric)
    [ group_hdr; agg_name op ^ "(" ^ metric ^ ")"; "rows" ]
    table_rows

(* Regression detection: for every (driver, config hash, metric) key,
   the last record at the baseline revision vs the last record overall
   (skipped when that is still the baseline revision). Worse-by-more-
   than-tolerance according to the metric's polarity = regression. *)
let run_regressions ?domains records since tolerance filter =
  let records = List.filter (matches_filter filter) records in
  let revs =
    List.fold_left
      (fun acc r -> if List.mem r.Store.r_rev acc then acc else r.Store.r_rev :: acc)
      [] records
    |> List.rev
  in
  match
    match since with
    | "earliest" -> (
      match revs with [] -> Error "store is empty" | r :: _ -> Ok r)
    | "latest" -> (
      match List.rev revs with [] -> Error "store is empty" | r :: _ -> Ok r)
    | p -> (
      let matching =
        List.filter
          (fun r ->
            String.length r >= String.length p && String.sub r 0 (String.length p) = p)
          revs
      in
      match matching with
      | [ r ] -> Ok r
      | [] -> Error (Printf.sprintf "no records at revision %S" p)
      | many ->
        Error
          (Printf.sprintf "revision prefix %S is ambiguous (%s)" p
             (String.concat ", " (List.map short_rev many))))
  with
  | Error e -> Printf.sprintf "regressions since %s: %s\n" since e
  | Ok base_rev ->
    let keyed =
      List.concat
        (Engine.Runner.map ?domains
           (fun r ->
             List.map
               (fun (m, v) ->
                 ((r.Store.r_driver, r.Store.r_hash, m), (r.Store.r_rev, v, r)))
               r.Store.r_metrics)
           records)
    in
    let tbl = Hashtbl.create 64 in
    (* Later store lines overwrite earlier ones: "last record wins". *)
    List.iter
      (fun (key, (rev, v, r)) ->
        let base, _ = try Hashtbl.find tbl key with Not_found -> (None, None) in
        let base = if rev = base_rev then Some (v, r) else base in
        Hashtbl.replace tbl key (base, Some (rev, v, r)))
      keyed;
    let findings =
      Hashtbl.fold
        (fun (driver, _hash, metric) (base, cur) acc ->
          match (base, cur, higher_is_better metric) with
          | Some (bv, br), Some (crev, cv, cr), Some polarity
            when crev <> base_rev && bv <> 0. ->
            let delta_pct = (cv -. bv) /. Float.abs bv *. 100. in
            let worse = if polarity then -.delta_pct else delta_pct in
            if worse > tolerance then
              (worse, driver, metric, bv, cv, delta_pct, br, cr) :: acc
            else acc
          | _ -> acc)
        tbl []
    in
    let findings =
      List.sort
        (fun (w1, d1, m1, _, _, _, b1, _) (w2, d2, m2, _, _, _, b2, _) ->
          let c = Float.compare w2 w1 in
          if c <> 0 then c
          else
            compare
              (d1, m1, config_cell b1)
              (d2, m2, config_cell b2))
        findings
    in
    let table_rows =
      List.map
        (fun (_, driver, metric, bv, cv, delta, base_r, _) ->
          [
            driver;
            config_cell base_r;
            metric;
            value_cell bv;
            value_cell cv;
            Printf.sprintf "%+.1f%%" delta;
          ])
        findings
    in
    if table_rows = [] then
      Printf.sprintf "no regressions since %s (tolerance %g%%)\n" (short_rev base_rev)
        tolerance
    else
      render_table
        ~title:
          (Printf.sprintf "regressions since %s (tolerance %g%%)" (short_rev base_rev)
             tolerance)
        [ "driver"; "config"; "metric"; "baseline"; "current"; "delta" ]
        table_rows

let run_catalogue records what =
  let field, header =
    match what with
    | `Drivers -> ((fun (r : Store.record) -> r.Store.r_driver), "driver")
    | `Kinds -> ((fun (r : Store.record) -> r.Store.r_kind), "kind")
    | `Revs -> ((fun (r : Store.record) -> r.Store.r_rev), "rev")
    | `Specs ->
      ( (fun (r : Store.record) ->
          if r.Store.r_spec = "" then "-" else r.Store.r_spec),
        "spec" )
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = field r in
      Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    records;
  let rows =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
  in
  render_table
    ~title:(Printf.sprintf "list %ss (%d records)" header (List.length records))
    [ header; "records" ]
    (List.map (fun (k, n) -> [ k; string_of_int n ]) rows)

let run ?domains records = function
  | Top (n, metric, filter) -> run_top ?domains records n metric filter
  | Aggregate (op, metric, group, filter) ->
    run_aggregate ?domains records op metric group filter
  | Regressions (rev, tolerance, filter) ->
    run_regressions ?domains records rev tolerance filter
  | Catalogue_of what -> run_catalogue records what
