type record = {
  r_schema : int;
  r_rev : string;
  r_host : string;
  r_spec : string;
  r_driver : string;
  r_kind : string;
  r_config : (string * string) list;
  r_hash : string;
  r_metrics : (string * float) list;
  r_payload : string;
}

let schema_version = 1

(* FNV-1a, 64-bit. Cheap, stable across runs and hosts, and good enough
   to key configurations (collisions only degrade regression grouping,
   never correctness of stored data). *)
let fnv1a_64 strings =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun s ->
      String.iter
        (fun c ->
          h := Int64.logxor !h (Int64.of_int (Char.code c));
          h := Int64.mul !h prime)
        s;
      (* Separator byte so ["ab";"c"] and ["a";"bc"] differ. *)
      h := Int64.logxor !h 0x1FL;
      h := Int64.mul !h prime)
    strings;
  !h

let config_hash ~driver config =
  let kvs =
    List.sort compare (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) config)
  in
  Printf.sprintf "%016Lx" (fnv1a_64 (Printf.sprintf "driver=%s" driver :: kvs))

let sort_fields kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

let make ?(spec = "") ?rev ?host ~driver ~kind ~config ~metrics ~payload () =
  let rev = match rev with Some r -> r | None -> Experiments.Perf.git_rev () in
  let host =
    match host with
    | Some h -> h
    | None -> ( try Unix.gethostname () with _ -> "unknown")
  in
  {
    r_schema = schema_version;
    r_rev = rev;
    r_host = host;
    r_spec = spec;
    r_driver = driver;
    r_kind = kind;
    r_config = sort_fields config;
    r_hash = config_hash ~driver config;
    r_metrics = sort_fields metrics;
    r_payload = payload;
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)

let to_line r =
  let open Jsonv in
  (* Keys listed alphabetically so the canonical form is written
     directly (to_string keeps stored order). *)
  to_string
    (Obj
       [
         ("config", Obj (List.map (fun (k, v) -> (k, Str v)) (sort_fields r.r_config)));
         ("config_hash", Str r.r_hash);
         ("driver", Str r.r_driver);
         ("git_rev", Str r.r_rev);
         ("host", Str r.r_host);
         ("kind", Str r.r_kind);
         ("metrics", Obj (List.map (fun (k, v) -> (k, Num v)) (sort_fields r.r_metrics)));
         ("payload", Str r.r_payload);
         ("schema", Num (float_of_int r.r_schema));
         ("spec_id", Str r.r_spec);
       ])

let of_line line =
  match Jsonv.parse line with
  | Error e -> Error e
  | Ok json -> (
    let field name = Jsonv.member name json in
    let str_field name =
      match Option.bind (field name) Jsonv.str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "record missing string field %S" name)
    in
    let kv_field name value =
      match Option.bind (field name) Jsonv.obj with
      | None -> Error (Printf.sprintf "record missing object field %S" name)
      | Some kvs -> (
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
            match value v with
            | Some v -> go ((k, v) :: acc) rest
            | None -> Error (Printf.sprintf "bad value for %S in %S" k name))
        in
        go [] kvs)
    in
    match Option.bind (field "schema") Jsonv.num with
    | None -> Error "record missing schema field"
    | Some s when not (Float.is_integer s) ->
      Error
        (Printf.sprintf "schema version %s is not an integer" (Jsonv.to_string (Num s)))
    | Some s when int_of_float s <> schema_version ->
      Error
        (Printf.sprintf "unknown schema version %d (this build reads %d)"
           (int_of_float s) schema_version)
    | Some _ -> (
      let ( let* ) = Result.bind in
      let* rev = str_field "git_rev" in
      let* host = str_field "host" in
      let* spec = str_field "spec_id" in
      let* driver = str_field "driver" in
      let* kind = str_field "kind" in
      let* hash = str_field "config_hash" in
      let* payload = str_field "payload" in
      let* config = kv_field "config" Jsonv.str in
      let* metrics = kv_field "metrics" Jsonv.num in
      Ok
        {
          r_schema = schema_version;
          r_rev = rev;
          r_host = host;
          r_spec = spec;
          r_driver = driver;
          r_kind = kind;
          r_config = sort_fields config;
          r_hash = hash;
          r_metrics = sort_fields metrics;
          r_payload = payload;
        }))

(* ------------------------------------------------------------------ *)
(* File I/O                                                           *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [len] bytes of [fd]'s file from offset [pos]. *)
let read_at fd pos len =
  let buf = Bytes.create len in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let rec go off =
    if off < len then
      match Unix.read fd buf off (len - off) with
      | 0 -> failwith "Store: file shrank while being read"
      | n -> go (off + n)
  in
  go 0;
  buf

(* The final line of [fd]'s file and the offset it starts at, when no
   newline ends it. *)
let unterminated_tail fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let rec line_start hi =
    if hi = 0 then 0
    else begin
      let lo = max 0 (hi - 4096) in
      match Bytes.rindex_opt (read_at fd lo (hi - lo)) '\n' with
      | Some i -> lo + i + 1
      | None -> line_start lo
    end
  in
  let start = line_start size in
  if start = size then None
  else Some (start, Bytes.to_string (read_at fd start (size - start)))

(* An append holds a lock on the whole file from the tail check to the
   write, so it never sees another process's batch half-written. The
   batch goes out in one [Unix.write] on an O_APPEND descriptor (the
   runtime splits it into 64 KiB system writes), so a crash can leave
   only the final line without its newline. The tail gets the rule
   [load] applies to it: a record [of_line] accepts stays, and the batch
   starts with its missing newline; anything else is a fragment [load]
   skips, and is cut off so it never glues onto the batch's first record
   to form a bad line in mid-file. *)
let append ~path records =
  mkdirs (Filename.dirname path);
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      let lead =
        match unterminated_tail fd with
        | None -> ""
        | Some (_, tail) when Result.is_ok (of_line tail) -> "\n"
        | Some (start, _) ->
          Unix.ftruncate fd start;
          ""
      in
      let batch = String.concat "" (lead :: List.map (fun r -> to_line r ^ "\n") records) in
      ignore (Unix.write_substring fd batch 0 (String.length batch)))

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let lines = String.split_on_char '\n' text in
    let last = List.length lines in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        if String.trim line = "" then go acc (lineno + 1) rest
        else
          match of_line line with
          | Ok r -> go (r :: acc) (lineno + 1) rest
          | Error e when lineno = last ->
            (* No newline after it: an append cut short. *)
            Printf.eprintf "%s:%d: skipping torn final line (%s)\n%!" path lineno e;
            Ok (List.rev acc)
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
    in
    go [] 1 lines
  end
