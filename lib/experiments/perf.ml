(* Best-effort commit id: CI exports GITHUB_SHA; locally, follow
   .git/HEAD one level. No git invocation, so this works in a bare
   build sandbox. *)
let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
    let read_line_of path =
      try
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Some (String.trim (input_line ic)))
      with Sys_error _ | End_of_file -> None
    in
    let rec find_git_dir dir depth =
      if depth > 6 then None
      else
        let cand = Filename.concat dir ".git" in
        if Sys.file_exists cand then Some cand
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else find_git_dir parent (depth + 1)
    in
    match find_git_dir (Sys.getcwd ()) 0 with
    | None -> "unknown"
    | Some git_dir -> (
      match read_line_of (Filename.concat git_dir "HEAD") with
      | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
        let refname = String.sub head 5 (String.length head - 5) in
        match read_line_of (Filename.concat git_dir refname) with
        | Some sha -> sha
        | None -> "unknown")
      | Some sha -> sha
      | None -> "unknown"))
