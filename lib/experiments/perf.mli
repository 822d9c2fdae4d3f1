(** Provenance of a measurement: the revision it was taken at. *)

val git_rev : unit -> string
(** Commit id, best effort: [GITHUB_SHA] when set (CI), else one-level
    read of [.git/HEAD], else ["unknown"]. *)
