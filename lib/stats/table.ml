type t = { headers : string list; mutable rows : string list list (* newest first *) }

let create ~headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch with headers";
  t.rows <- row :: t.rows

let add_rows t rows = List.iter (add_row t) rows

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = '%' || c = 'x')
       s

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | `Left -> s ^ String.make n ' '
    | `Right -> String.make n ' ' ^ s

let render ?title t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let buf = Buffer.create 256 in
  (match title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  let rule () =
    Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
    Buffer.add_string buf "+\n"
  in
  let emit_row ~header row =
    List.iteri
      (fun i cell ->
        let align = if (not header) && looks_numeric cell then `Right else `Left in
        Buffer.add_string buf ("| " ^ pad align widths.(i) cell ^ " "))
      row;
    Buffer.add_string buf "|\n"
  in
  rule ();
  emit_row ~header:true t.headers;
  rule ();
  List.iter (emit_row ~header:false) rows;
  rule ();
  Buffer.contents buf

let ms_of_ns ns = Printf.sprintf "%.1f" (float_of_int ns /. 1_000_000.0)
let pct p = Printf.sprintf "%.1f%%" p
