type t = {
  sp_id : string;
  sp_driver : string;
  sp_axes : (string * string list) list;
}

let max_configs = 10_000

let value_to_string = function
  | Jsonv.Str s -> Some s
  | Jsonv.Num v -> Some (Jsonv.num_str v)
  | Jsonv.Bool b -> Some (if b then "true" else "false")
  | Jsonv.Null | Jsonv.Arr _ | Jsonv.Obj _ -> None

let spec_of_json json =
  let ( let* ) = Result.bind in
  let* id =
    match Option.bind (Jsonv.member "id" json) Jsonv.str with
    | Some s when s <> "" -> Ok s
    | _ -> Error "spec missing \"id\""
  in
  let* driver =
    match Option.bind (Jsonv.member "driver" json) Jsonv.str with
    | Some s when s <> "" -> Ok s
    | _ -> Error (Printf.sprintf "spec %S missing \"driver\"" id)
  in
  let* axes =
    match Option.bind (Jsonv.member "axes" json) Jsonv.obj with
    | None -> Error (Printf.sprintf "spec %S missing \"axes\" object" id)
    | Some kvs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (axis, Jsonv.Arr values) :: rest -> (
          let vs = List.filter_map value_to_string values in
          if vs = [] || List.length vs <> List.length values then
            Error
              (Printf.sprintf "spec %S axis %S needs a non-empty array of scalars" id
                 axis)
          else
            match List.assoc_opt axis acc with
            | Some _ -> Error (Printf.sprintf "spec %S repeats axis %S" id axis)
            | None -> go ((axis, vs) :: acc) rest)
        | (axis, (Jsonv.Str _ | Jsonv.Num _ | Jsonv.Bool _)) :: _ ->
          Error
            (Printf.sprintf
               "spec %S axis %S: wrap single values in an array ([...])" id axis)
        | (axis, _) :: _ ->
          Error (Printf.sprintf "spec %S axis %S needs an array of scalars" id axis)
      in
      go [] kvs
  in
  let axes = List.sort (fun (a, _) (b, _) -> String.compare a b) axes in
  let size = List.fold_left (fun acc (_, vs) -> acc * List.length vs) 1 axes in
  if size > max_configs then
    Error
      (Printf.sprintf "spec %S expands to %d configs (limit %d)" id size max_configs)
  else Ok { sp_id = id; sp_driver = driver; sp_axes = axes }

let of_string text =
  let ( let* ) = Result.bind in
  let* json = Jsonv.parse text in
  let* objs =
    match json with
    | Jsonv.Obj _ -> Ok [ json ]
    | Jsonv.Arr xs -> Ok xs
    | _ -> Error "spec file must hold a spec object or an array of them"
  in
  if objs = [] then Error "spec file holds no specs"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | o :: rest -> (
        match spec_of_json o with Ok s -> go (s :: acc) rest | Error e -> Error e)
    in
    let* specs = go [] objs in
    let ids = List.map (fun s -> s.sp_id) specs in
    if List.length (List.sort_uniq String.compare ids) <> List.length ids then
      Error "spec file repeats a spec id"
    else Ok specs

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

let expand t =
  (* Axes are stored sorted; fold from the right so the last axis
     varies fastest. *)
  List.fold_right
    (fun (axis, values) tails ->
      List.concat_map (fun v -> List.map (fun tail -> (axis, v) :: tail) tails) values)
    t.sp_axes [ [] ]
