type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)

let num_str v =
  if Float.is_nan v || Float.abs v = infinity then
    (* Out-of-contract values; keep the output a valid JSON number. *)
    "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    (* Shortest of %.12g/%.17g that parses back to the same float, so
       printing is a function of the value alone and a parse/print
       round trip is byte-stable. *)
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let escape = Engine.Text.json_escape

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> Buffer.add_string buf (num_str v)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          go x)
        kvs;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let rec canonical = function
  | (Null | Bool _ | Num _ | Str _) as v -> v
  | Arr xs -> Arr (List.map canonical xs)
  | Obj kvs ->
    Obj
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun (k, v) -> (k, canonical v)) kvs))

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)

exception Fail of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = text.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape"
           else
             let e = text.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub text !pos 4 in
               pos := !pos + 4;
               let is_hex = function
                 | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                 | _ -> false
               in
               if not (String.for_all is_hex hex) then fail "bad \\u escape";
               let code = int_of_string ("0x" ^ hex) in
               (* Encode as UTF-8 (surrogate pairs are not needed for
                  the documents this library writes). *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
             | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && num_char text.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some v when Float.is_finite v -> v
      | Some _ | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "json: %s at byte %d" msg at)

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num v -> Some v | _ -> None
let arr = function Arr xs -> Some xs | _ -> None
let obj = function Obj kvs -> Some kvs | _ -> None
