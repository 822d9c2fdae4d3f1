type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let incr t name = Stdlib.incr (cell t name)
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let to_list t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
