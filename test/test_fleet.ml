(* The experiment fleet: JSON stability, store round-trips, config-hash
   invariants, spec expansion, catalogue validation, query determinism,
   and the store-vs-legacy byte-identity contract. *)

let check = Alcotest.check
let bool = Alcotest.bool
let string = Alcotest.string
let int = Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let replace_once s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let tmp_file name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("fleet_test_" ^ name) in
  if Sys.file_exists path then Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Jsonv                                                              *)

let test_jsonv_roundtrip () =
  let open Fleet.Jsonv in
  let docs =
    [
      {|{"a":1,"b":[true,false,null],"c":"x\ny\"z\\"}|};
      {|[1.5,-2e3,0.001,12345678901.4,3,0]|};
      {|{"nested":{"k":[{"deep":"v"}]},"empty":{},"earr":[]}|};
      {|"just a string"|};
      {|42|};
    ]
  in
  List.iter
    (fun doc ->
      match parse doc with
      | Error e -> Alcotest.failf "parse %s: %s" doc e
      | Ok v -> (
        let printed = to_string v in
        match parse printed with
        | Error e -> Alcotest.failf "reparse %s: %s" printed e
        | Ok v2 -> check string ("stable: " ^ doc) printed (to_string v2)))
    docs

let test_jsonv_num_idempotent () =
  let open Fleet.Jsonv in
  List.iter
    (fun v ->
      let s = num_str v in
      let v2 = float_of_string s in
      check string (Printf.sprintf "num_str idempotent for %h" v) s (num_str v2))
    [
      0.; 1.; -1.; 0.1; 1. /. 3.; 1e-7; 12345678901.4; 1e15; 1.23e15; -4.56e-9;
      Float.pi; 1_000_000.5; 2.5e20;
    ]

(* The one JSON string escape every artifact printer and the store
   share: each control character below 0x20 gets its short escape
   (newline, carriage return, tab) or a [\u00XX] escape, the quote and
   the backslash are escaped, and the result parses back to the input. *)
let test_json_escape_controls () =
  for code = 0 to 0x1f do
    let c = Char.chr code in
    let want =
      match c with
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> Printf.sprintf "\\u%04x" code
    in
    check string (Printf.sprintf "escape of 0x%02x" code) want
      (Engine.Text.json_escape (String.make 1 c))
  done;
  check string "quote and backslash" "a\\\"b\\\\c" (Engine.Text.json_escape "a\"b\\c");
  let all = String.init 0x20 Char.chr ^ "\"\\ plain" in
  match Fleet.Jsonv.parse ("\"" ^ Engine.Text.json_escape all ^ "\"") with
  | Ok (Fleet.Jsonv.Str s) -> check string "escape parses back" all s
  | Ok _ | Error _ -> Alcotest.fail "escaped control characters do not parse back"

let test_jsonv_errors () =
  let open Fleet.Jsonv in
  List.iter
    (fun doc ->
      match parse doc with
      | Ok _ -> Alcotest.failf "expected parse error for %s" doc
      | Error _ -> ())
    [
      "{";
      "[1,";
      {|{"a"}|};
      "tru";
      "";
      "1 2";
      {|{"a":1,}|};
      (* overflows to infinity, which no JSON number denotes *)
      "[1e999, 2000]";
      (* \u takes exactly four hex digits *)
      {|"\u1_23"|};
      {|"\u+123"|};
    ]

let test_jsonv_canonical () =
  let open Fleet.Jsonv in
  match parse {|{"z":1,"a":{"y":2,"b":3},"m":[{"q":4,"p":5}]}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    check string "keys sorted recursively"
      {|{"a":{"b":3,"y":2},"m":[{"p":5,"q":4}],"z":1}|}
      (to_string (canonical v))

let gen_json =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.) float in
  let leaf =
    oneof
      [
        return Fleet.Jsonv.Null;
        map (fun b -> Fleet.Jsonv.Bool b) bool;
        map (fun f -> Fleet.Jsonv.Num f) finite;
        map (fun s -> Fleet.Jsonv.Str s) string_small;
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 1 then leaf
         else
           let kids = list_size (0 -- 4) (self (n / 4)) in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Fleet.Jsonv.Arr l) kids);
               ( 1,
                 map
                   (fun l -> Fleet.Jsonv.Obj l)
                   (list_size (0 -- 4) (pair string_small (self (n / 4)))) );
             ]))

let prop_jsonv_parse_print =
  QCheck.Test.make ~name:"jsonv: parse . print is the identity" ~count:500
    (QCheck.make ~print:Fleet.Jsonv.to_string gen_json)
    (fun v -> Fleet.Jsonv.parse (Fleet.Jsonv.to_string v) = Ok v)

(* Arbitrary bytes, and printed documents cut or with one byte changed:
   the parsers answer Ok or Error and never raise. *)
let prop_parsers_total =
  let damaged =
    QCheck.Gen.(
      map3
        (fun v cut c ->
          let s = Fleet.Jsonv.to_string v in
          let n = String.length s in
          let s = String.sub s 0 (cut mod (n + 1)) in
          if s = "" then s
          else String.mapi (fun i x -> if i = cut mod String.length s then c else x) s)
        gen_json nat char)
  in
  QCheck.Test.make ~name:"jsonv/spec: parsers never raise" ~count:2000
    (QCheck.make ~print:String.escaped QCheck.Gen.(oneof [ string; damaged ]))
    (fun s ->
      ignore (Fleet.Jsonv.parse s);
      ignore (Fleet.Spec.of_string s);
      true)

(* ------------------------------------------------------------------ *)
(* Store                                                              *)

let sample_record ?(rev = "deadbeefcafe") ?(config = [ ("b", "2"); ("a", "1") ])
    ?(metrics = [ ("total_ns", 12345.); ("mean_wait_us", 6.25) ]) () =
  Fleet.Store.make ~spec:"spec-x" ~rev ~host:"testhost" ~driver:"csweep"
    ~kind:"CSWEEP" ~config ~metrics ~payload:"{\"payload\":\"bytes\\n\"}" ()

let test_store_line_roundtrip () =
  let r = sample_record () in
  let line = Fleet.Store.to_line r in
  check bool "single line" false (String.contains line '\n');
  match Fleet.Store.of_line line with
  | Error e -> Alcotest.fail e
  | Ok r2 ->
    check string "byte-identical through a round trip" line (Fleet.Store.to_line r2);
    check string "payload preserved" r.Fleet.Store.r_payload r2.Fleet.Store.r_payload;
    check string "hash preserved" r.Fleet.Store.r_hash r2.Fleet.Store.r_hash

let test_store_file_roundtrip () =
  let path = tmp_file "store.jsonl" in
  let records =
    [
      sample_record ();
      sample_record ~rev:"0123456789ab" ~metrics:[ ("total_ns", 999.) ] ();
    ]
  in
  Fleet.Store.append ~path records;
  Fleet.Store.append ~path [ sample_record ~config:[ ("c", "3") ] () ];
  (match Fleet.Store.load ~path with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
    check int "all appended records load" 3 (List.length loaded);
    List.iteri
      (fun i (a, b) ->
        check string
          (Printf.sprintf "record %d reserializes identically" i)
          (Fleet.Store.to_line a) (Fleet.Store.to_line b))
      (List.combine (records @ [ sample_record ~config:[ ("c", "3") ] () ]) loaded));
  Sys.remove path

let test_store_missing_file () =
  match Fleet.Store.load ~path:"/nonexistent/fleet/store.jsonl" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty store"
  | Error e -> Alcotest.fail e

let test_config_hash_stability () =
  let h1 = Fleet.Store.config_hash ~driver:"csweep" [ ("a", "1"); ("b", "2") ] in
  let h2 = Fleet.Store.config_hash ~driver:"csweep" [ ("b", "2"); ("a", "1") ] in
  check string "field order does not change the hash" h1 h2;
  let h3 = Fleet.Store.config_hash ~driver:"csweep" [ ("a", "1"); ("b", "3") ] in
  check bool "different value, different hash" false (h1 = h3);
  let h4 = Fleet.Store.config_hash ~driver:"chaos" [ ("a", "1"); ("b", "2") ] in
  check bool "different driver, different hash" false (h1 = h4);
  (* Records built from reordered configs serialize identically. *)
  let r1 = sample_record ~config:[ ("a", "1"); ("b", "2") ] () in
  let r2 = sample_record ~config:[ ("b", "2"); ("a", "1") ] () in
  check string "record bytes independent of config field order"
    (Fleet.Store.to_line r1) (Fleet.Store.to_line r2)

let test_store_schema_rejection () =
  let line = Fleet.Store.to_line (sample_record ()) in
  (* Forge a future-format record by bumping the schema field. *)
  let future = replace_once line ~sub:"\"schema\":1" ~by:"\"schema\":2" in
  check bool "forged line differs" false (line = future);
  (match Fleet.Store.of_line future with
  | Ok _ -> Alcotest.fail "schema 2 must be rejected"
  | Error e -> check bool "error names the schema" true (contains e "schema"));
  let path = tmp_file "store_future.jsonl" in
  let oc = open_out path in
  output_string oc (line ^ "\n" ^ future ^ "\n");
  close_out oc;
  (match Fleet.Store.load ~path with
  | Ok _ -> Alcotest.fail "load must propagate the unknown-schema error"
  | Error e -> check bool "error names the line" true (contains e ":2:"));
  Sys.remove path

let test_store_torn_tail () =
  let line = Fleet.Store.to_line (sample_record ()) in
  let write text =
    let path = tmp_file "store_torn.jsonl" in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  (* A crash mid-append leaves a final line with no newline: skipped. *)
  let path = write (line ^ "\n" ^ line ^ "\n" ^ String.sub line 0 40) in
  (match Fleet.Store.load ~path with
  | Ok records -> check int "complete records kept" 2 (List.length records)
  | Error e -> Alcotest.failf "torn tail must be skipped: %s" e);
  Sys.remove path;
  (* The same bytes followed by a newline are a complete bad line. *)
  let path = write (line ^ "\n" ^ String.sub line 0 40 ^ "\n" ^ line ^ "\n") in
  (match Fleet.Store.load ~path with
  | Ok _ -> Alcotest.fail "a complete bad line must be an error"
  | Error e -> check bool "error names the line" true (contains e ":2:"));
  Sys.remove path;
  (* An append after a crash cuts the torn line off first, so it
     cannot glue onto the new record and turn into a bad line. *)
  let path = write (line ^ "\n" ^ String.sub line 0 40) in
  let later = sample_record ~config:[ ("c", "3") ] () in
  Fleet.Store.append ~path [ later ];
  (match Fleet.Store.load ~path with
  | Ok records ->
    Alcotest.(check (list string)) "both complete records load"
      [ line; Fleet.Store.to_line later ]
      (List.map Fleet.Store.to_line records)
  | Error e -> Alcotest.failf "append after a torn tail: %s" e);
  Sys.remove path;
  (* A complete record that lost only its newline is kept: [load]
     returns it, and an append ends it instead of cutting it off. *)
  let path = write (line ^ "\n" ^ line) in
  (match Fleet.Store.load ~path with
  | Ok records -> check int "unterminated complete record loads" 2 (List.length records)
  | Error e -> Alcotest.failf "unterminated complete record: %s" e);
  Fleet.Store.append ~path [ later ];
  (match Fleet.Store.load ~path with
  | Ok records ->
    Alcotest.(check (list string)) "unterminated record kept by append"
      [ line; line; Fleet.Store.to_line later ]
      (List.map Fleet.Store.to_line records)
  | Error e -> Alcotest.failf "append after an unterminated record: %s" e);
  Sys.remove path

let test_store_rejects_garbage () =
  List.iter
    (fun line ->
      match Fleet.Store.of_line line with
      | Ok _ -> Alcotest.failf "expected rejection of %s" line
      | Error _ -> ())
    [
      "not json";
      "{}";
      {|{"schema":1}|};
      (* missing metrics *)
      {|{"config":{},"config_hash":"x","driver":"d","git_rev":"r","host":"h","kind":"K","payload":"p","schema":1,"spec_id":""}|};
      (* a schema version must be an integer, not one rounded down *)
      replace_once (Fleet.Store.to_line (sample_record ())) ~sub:"\"schema\":1"
        ~by:"\"schema\":1.5";
    ]

(* ------------------------------------------------------------------ *)
(* Spec + catalogue                                                   *)

let smoke_spec_text =
  {|{ "id": "t", "driver": "csweep",
      "axes": { "lock": ["spin", "blocking"], "cs_ns": [5000, 10000, 20000],
                "iterations": [3] } }|}

let test_spec_expansion () =
  match Fleet.Spec.of_string smoke_spec_text with
  | Error e -> Alcotest.fail e
  | Ok [ s ] ->
    let configs = Fleet.Spec.expand s in
    check int "expand yields size configs" 6 (List.length configs);
    (* Axes sorted by name (cs_ns < iterations < lock), last axis
       fastest, values in spec order. *)
    let as_str c = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) c) in
    check string "first config" "cs_ns=5000,iterations=3,lock=spin"
      (as_str (List.hd configs));
    check string "second config" "cs_ns=5000,iterations=3,lock=blocking"
      (as_str (List.nth configs 1));
    check string "last config" "cs_ns=20000,iterations=3,lock=blocking"
      (as_str (List.nth configs 5))
  | Ok _ -> Alcotest.fail "expected one spec"

let test_spec_errors () =
  List.iter
    (fun (label, text) ->
      match Fleet.Spec.of_string text with
      | Ok _ -> Alcotest.failf "expected spec error: %s" label
      | Error _ -> ())
    [
      ("missing id", {|{"driver":"csweep","axes":{}}|});
      ("missing driver", {|{"id":"x","axes":{}}|});
      ("missing axes", {|{"id":"x","driver":"csweep"}|});
      ("bare scalar axis", {|{"id":"x","driver":"csweep","axes":{"cs_ns":5}}|});
      ("empty axis", {|{"id":"x","driver":"csweep","axes":{"cs_ns":[]}}|});
      ("repeated ids", {|[{"id":"x","driver":"csweep","axes":{"cs_ns":[1]}},
                          {"id":"x","driver":"csweep","axes":{"cs_ns":[2]}}]|});
      ("not an object", {|17|});
      ("overflowing axis value", {|{"id":"x","driver":"csweep","axes":{"cs_ns":[1e999,2000]}}|});
    ]

let test_catalogue_validation () =
  let spec_of text =
    match Fleet.Spec.of_string text with
    | Ok [ s ] -> s
    | Ok _ | Error _ -> Alcotest.fail "fixture spec must parse"
  in
  (match Fleet.Catalogue.validate (spec_of smoke_spec_text) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let expect_error label text =
    match Fleet.Catalogue.validate (spec_of text) with
    | Ok () -> Alcotest.failf "expected validation error: %s" label
    | Error _ -> ()
  in
  expect_error "unknown driver" {|{"id":"x","driver":"nope","axes":{}}|};
  expect_error "unknown axis"
    {|{"id":"x","driver":"csweep","axes":{"warp":[1]}}|};
  expect_error "bad int"
    {|{"id":"x","driver":"csweep","axes":{"cs_ns":["fast"]}}|};
  expect_error "bad enum member"
    {|{"id":"x","driver":"csweep","axes":{"lock":["mutex9000"]}}|}

let test_catalogue_run_config () =
  let driver =
    match Fleet.Catalogue.find "csweep" with
    | Some d -> d
    | None -> Alcotest.fail "csweep driver registered"
  in
  let config = [ ("cs_ns", "5000"); ("iterations", "2"); ("processors", "2") ] in
  let metrics, payload = Fleet.Catalogue.run_config driver config in
  check bool "total_ns metric present" true (List.mem_assoc "total_ns" metrics);
  check bool "payload parses" true
    (match Fleet.Jsonv.parse payload with Ok _ -> true | Error _ -> false);
  (* Same config, same bytes: the driver is deterministic. *)
  let metrics2, payload2 = Fleet.Catalogue.run_config driver config in
  check string "payload deterministic" payload payload2;
  check bool "metrics deterministic" true (metrics = metrics2)

(* ------------------------------------------------------------------ *)
(* Query                                                              *)

let synthetic_records =
  (* Two revisions; rev2's spin config regressed on total_ns and
     improved nothing else. *)
  let mk rev lock total wait =
    Fleet.Store.make ~spec:"syn" ~rev ~host:"h" ~driver:"csweep" ~kind:"CSWEEP"
      ~config:[ ("lock", lock) ]
      ~metrics:[ ("total_ns", total); ("mean_wait_us", wait) ]
      ~payload:"{}" ()
  in
  [
    mk "aaaa111" "spin" 1000. 4.;
    mk "aaaa111" "blocking" 3000. 9.;
    mk "bbbb222" "spin" 2000. 4.5;
    mk "bbbb222" "blocking" 2900. 8.;
  ]

let test_query_parse () =
  let ok q = match Fleet.Query.parse q with Ok _ -> () | Error e -> Alcotest.fail e in
  ok "top 20 by mean_wait_us";
  ok "top 5 by total_ns where driver=csweep lock=spin";
  ok "mean total_ns group by driver";
  ok "count * group by kind";
  ok "regressions since aaaa111";
  ok "regressions since earliest tolerance 10";
  ok "list drivers";
  List.iter
    (fun q ->
      match Fleet.Query.parse q with
      | Ok _ -> Alcotest.failf "expected parse error for %S" q
      | Error _ -> ())
    [ ""; "top x by m"; "top 5 m"; "regressions"; "list everything"; "median m" ]

let test_query_polarity () =
  check bool "wait is lower-better" true
    (Fleet.Query.higher_is_better "mean_wait_us" = Some false);
  check bool "eps is higher-better" true
    (Fleet.Query.higher_is_better "events_per_sec" = Some true);
  check bool "suffixed time is lower-better" true
    (Fleet.Query.higher_is_better "moderate/adaptive/total_ns" = Some false);
  check bool "unknown says nothing" true
    (Fleet.Query.higher_is_better "adaptations" = None)

let test_query_top () =
  match Fleet.Query.parse "top 2 by total_ns" with
  | Error e -> Alcotest.fail e
  | Ok q ->
    let out = Fleet.Query.run synthetic_records q in
    (* lower-better: the two smallest totals are spin@rev1 (1000) then
       spin@rev2 (2000). *)
    let lines = String.split_on_char '\n' out in
    let row_with rank value =
      List.exists (fun l -> contains l rank && contains l value) lines
    in
    check bool "smallest first" true (row_with "| 1 " "1000");
    check bool "runner-up second" true (row_with "| 2 " "2000")

let test_query_regressions () =
  match Fleet.Query.parse "regressions since aaaa111 tolerance 5" with
  | Error e -> Alcotest.fail e
  | Ok q ->
    let out = Fleet.Query.run synthetic_records q in
    check bool "spin total_ns doubled -> flagged" true
      (contains out "lock=spin" && contains out "total_ns");
    check bool "blocking improved -> not flagged" false (contains out "lock=blocking")

let test_query_domains_determinism () =
  (* The acceptance bar: both canonical views byte-identical at
     --domains 1 and 4, on a store with enough records to split. *)
  let records =
    synthetic_records
    @ List.concat_map
        (fun i ->
          [
            Fleet.Store.make ~spec:"syn2" ~rev:"bbbb222" ~host:"h" ~driver:"switch"
              ~kind:"SWITCH"
              ~config:[ ("variant", if i mod 2 = 0 then "tas" else "mcs") ]
              ~metrics:
                [
                  ("total_ns", float_of_int (1_000_000 - (i * 777)));
                  ("mean_wait_us", float_of_int i *. 1.5);
                ]
              ~payload:"{}" ();
          ])
        (List.init 23 (fun i -> i))
  in
  List.iter
    (fun query ->
      match Fleet.Query.parse query with
      | Error e -> Alcotest.fail e
      | Ok q ->
        let d1 = Fleet.Query.run ~domains:1 records q in
        let d4 = Fleet.Query.run ~domains:4 records q in
        check string (Printf.sprintf "%S at domains 1 = 4" query) d1 d4)
    [
      "top 20 by mean_wait_us";
      "regressions since earliest";
      "mean total_ns group by driver";
      "count * group by kind";
    ]

(* ------------------------------------------------------------------ *)
(* Sink + legacy byte-identity                                        *)

let test_sink_writes_payload_verbatim () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "fleet_sink_test" in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm root;
  (* Neither the directory nor its parents exist yet. *)
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let store = Filename.concat dir "store.jsonl" in
  let payload = "line one\nline two \xc3\xa9\n" in
  let r =
    Fleet.Store.make ~driver:"t" ~kind:"T" ~config:[] ~metrics:[ ("m", 1.) ] ~payload ()
  in
  let written =
    Fleet.Sink.write { Fleet.Sink.store = Some store; csv_dir = Some dir }
      ~legacy:"artifact.txt" r
  in
  let path = Filename.concat dir "artifact.txt" in
  check bool "returns the legacy path" true (written = Some path);
  check string "legacy file holds the payload bytes" payload
    (In_channel.with_open_bin path In_channel.input_all);
  (match Fleet.Store.load ~path:store with
  | Ok [ stored ] ->
    check string "stored payload = file bytes" payload stored.Fleet.Store.r_payload;
    check string "record round-trips" (Fleet.Store.to_line r)
      (Fleet.Store.to_line stored)
  | Ok _ -> Alcotest.fail "expected exactly one record"
  | Error e -> Alcotest.fail e);
  rm root

let test_sink_store_precedence () =
  let resolve flag env csv_dir = Fleet.Sink.resolve_store ~flag ~env ~csv_dir in
  let s = Alcotest.(option string) in
  check s "--store wins over everything" (Some "flag.jsonl")
    (resolve (Some "flag.jsonl") (Some "env.jsonl") (Some "dir"));
  check s "then $REPRO_STORE" (Some "env.jsonl") (resolve None (Some "env.jsonl") (Some "dir"));
  check s "$REPRO_STORE without --csv-dir" (Some "env.jsonl")
    (resolve None (Some "env.jsonl") None);
  check s "then CSV_DIR/store.jsonl" (Some (Filename.concat "dir" "store.jsonl"))
    (resolve None None (Some "dir"));
  check s "an empty $REPRO_STORE counts as unset"
    (Some (Filename.concat "dir" "store.jsonl"))
    (resolve None (Some "") (Some "dir"));
  check s "else no store" None (resolve None (Some "") None)

let suite =
  [
    Alcotest.test_case "jsonv: parse/print round trip is stable" `Quick
      test_jsonv_roundtrip;
    Alcotest.test_case "jsonv: float printing is idempotent" `Quick
      test_jsonv_num_idempotent;
    Alcotest.test_case "jsonv: malformed documents rejected" `Quick test_jsonv_errors;
    Alcotest.test_case "json escape: every control character" `Quick
      test_json_escape_controls;
    Alcotest.test_case "jsonv: canonical sorts keys recursively" `Quick
      test_jsonv_canonical;
    QCheck_alcotest.to_alcotest prop_jsonv_parse_print;
    QCheck_alcotest.to_alcotest prop_parsers_total;
    Alcotest.test_case "store: line round trip is byte-identical" `Quick
      test_store_line_roundtrip;
    Alcotest.test_case "store: append/load/reserialize round trip" `Quick
      test_store_file_roundtrip;
    Alcotest.test_case "store: missing file is an empty store" `Quick
      test_store_missing_file;
    Alcotest.test_case "store: config hash ignores field order" `Quick
      test_config_hash_stability;
    Alcotest.test_case "store: unknown schema versions rejected" `Quick
      test_store_schema_rejection;
    Alcotest.test_case "store: malformed records rejected" `Quick
      test_store_rejects_garbage;
    Alcotest.test_case "store: torn final line skipped, bad line located" `Quick
      test_store_torn_tail;
    Alcotest.test_case "spec: cross-product expansion order" `Quick
      test_spec_expansion;
    Alcotest.test_case "spec: malformed specs rejected" `Quick test_spec_errors;
    Alcotest.test_case "catalogue: validation catches bad specs" `Quick
      test_catalogue_validation;
    Alcotest.test_case "catalogue: csweep driver runs deterministically" `Quick
      test_catalogue_run_config;
    Alcotest.test_case "query: grammar parses and rejects" `Quick test_query_parse;
    Alcotest.test_case "query: metric polarity rules" `Quick test_query_polarity;
    Alcotest.test_case "query: top ranks by polarity" `Quick test_query_top;
    Alcotest.test_case "query: regression detection since rev" `Quick
      test_query_regressions;
    Alcotest.test_case "query: byte-identical at domains 1 vs 4" `Quick
      test_query_domains_determinism;
    Alcotest.test_case "sink: store payload = legacy file bytes" `Quick
      test_sink_writes_payload_verbatim;
    Alcotest.test_case "sink: store precedence" `Quick test_sink_store_precedence;
  ]
