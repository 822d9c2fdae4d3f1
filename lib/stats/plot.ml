let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

let bounds points =
  List.fold_left
    (fun (x0, x1, y0, y1) (x, y) ->
      (Float.min x0 x, Float.max x1 x, Float.min y0 y, Float.max y1 y))
    (infinity, neg_infinity, infinity, neg_infinity)
    points

let lines ?(width = 64) ?(height = 18) ?(x_label = "") ?(y_label = "") named =
  let all_points = List.concat_map snd named in
  if all_points = [] then ""
  else begin
    let x0, x1, y0, y1 = bounds all_points in
    let xspan = if x1 > x0 then x1 -. x0 else 1.0 in
    let yspan = if y1 > y0 then y1 -. y0 else 1.0 in
    let canvas = Array.make_matrix height width ' ' in
    let put x y glyph =
      let col =
        int_of_float (Float.round ((x -. x0) /. xspan *. float_of_int (width - 1)))
      in
      let row =
        height - 1
        - int_of_float (Float.round ((y -. y0) /. yspan *. float_of_int (height - 1)))
      in
      if row >= 0 && row < height && col >= 0 && col < width then canvas.(row).(col) <- glyph
    in
    List.iteri
      (fun i (_, points) ->
        let glyph = glyphs.(i mod Array.length glyphs) in
        (* Interpolate between consecutive points so curves read as
           lines rather than scattered dots. *)
        let rec draw = function
          | (xa, ya) :: ((xb, yb) :: _ as rest) ->
            let steps = max 1 (width / max 1 (List.length points)) * 2 in
            for s = 0 to steps do
              let f = float_of_int s /. float_of_int steps in
              put (xa +. (f *. (xb -. xa))) (ya +. (f *. (yb -. ya))) glyph
            done;
            draw rest
          | [ (x, y) ] -> put x y glyph
          | [] -> ()
        in
        draw points)
      named;
    let buf = Buffer.create ((width + 12) * (height + 4)) in
    if y_label <> "" then Buffer.add_string buf (y_label ^ "\n");
    Array.iteri
      (fun row line ->
        let y = y1 -. (float_of_int row /. float_of_int (height - 1) *. yspan) in
        Buffer.add_string buf (Printf.sprintf "%10.1f |" y);
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      canvas;
    Buffer.add_string buf (String.make 11 ' ' ^ "+" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "%10s  %-12.1f%*s%.1f  %s" "" x0 (width - 16) "" x1 x_label);
    Buffer.add_char buf '\n';
    List.iteri
      (fun i (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "   %c = %s\n" glyphs.(i mod Array.length glyphs) name))
      named;
    Buffer.contents buf
  end

let series s =
  let width = 72 and height = 14 in
  let resampled = Engine.Series.resample s ~buckets:width in
  if Array.length resampled = 0 then ""
  else begin
    let points =
      Array.to_list resampled
      |> List.map (fun (t, v) -> (float_of_int t /. 1_000_000.0, v))
    in
    lines ~width ~height ~x_label:"time (ms)" ~y_label:(Engine.Series.name s)
      [ (Engine.Series.name s, points) ]
  end
