type t = { store : string option; csv_dir : string option }

let append t records =
  match t.store with Some path -> Store.append ~path records | None -> ()

let write t ~legacy record =
  append t [ record ];
  Option.map
    (fun dir ->
      let path = Filename.concat dir legacy in
      Store.mkdirs dir;
      Out_channel.with_open_bin path (fun oc -> output_string oc record.Store.r_payload);
      path)
    t.csv_dir

let hook t ~driver ~kind ~config ~name ~metrics ~payload =
  let record =
    Store.make ~driver ~kind ~config:(("artifact", name) :: config) ~metrics ~payload ()
  in
  ignore (write t ~legacy:name record)

let default_store ~csv_dir =
  match Sys.getenv_opt "REPRO_STORE" with
  | Some p when p <> "" -> p
  | _ -> Filename.concat csv_dir "store.jsonl"
