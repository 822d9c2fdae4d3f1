(* perfbench_pins SOURCE NAME FILE [NAME FILE ...]: fails unless SOURCE
   has the line [let NAME = "HEX"] for each pair, where HEX is the MD5
   of FILE. The benchmark's perfbench/work.ml repeats the MD5s of two
   committed results; this keeps a re-baseline that moves their bytes
   from passing the test suite and failing only the benchmark's output
   check. *)

let () =
  let source = Sys.argv.(1) in
  let lines =
    List.map String.trim
      (String.split_on_char '\n' (In_channel.with_open_bin source In_channel.input_all))
  in
  let rec check ok = function
    | name :: file :: rest ->
      let line = Printf.sprintf "let %s = %S" name (Digest.to_hex (Digest.file file)) in
      let found = List.mem line lines in
      if not found then
        Printf.eprintf "%s: expected the line\n  %s\n(the MD5 of %s)\n" source line file;
      check (ok && found) rest
    | _ -> ok
  in
  if not (check true (List.tl (List.tl (Array.to_list Sys.argv)))) then exit 1
