(* Characters spanned by the longest bar. *)
let width = 50

let scale_for values =
  let vmax = List.fold_left Float.max 0.0 values in
  if vmax <= 0.0 then 0.0 else float_of_int width /. vmax

let bar ~scale v = String.make (max 0 (int_of_float (Float.round (v *. scale)))) '#'

let bars ~title series =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 series
  in
  let scale = scale_for (List.map snd series) in
  List.iter
    (fun (label, v) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s %-*s %.2f\n" label_w label width (bar ~scale v) v))
    series;
  Buffer.contents buf

let glyphs = [| '#'; '='; '-'; '+'; '*' |]

(* Cold-to-hot ramp for [heat]. *)
let ramp = [| '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@'; 'X' |]

let heat ~title ~rows ~cols f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let vmax = ref 0.0 in
  let cells = Array.init rows (fun r -> Array.init cols (fun c -> f r c)) in
  Array.iter (Array.iter (fun v -> vmax := Float.max !vmax v)) cells;
  let glyph v =
    if !vmax <= 0.0 || v <= 0.0 then ramp.(0)
    else
      let i = int_of_float (v /. !vmax *. float_of_int (Array.length ramp)) in
      ramp.(min (Array.length ramp - 1) (max 0 i))
  in
  for r = 0 to rows - 1 do
    Buffer.add_string buf (Printf.sprintf "  %3d " r);
    for c = 0 to cols - 1 do
      Buffer.add_char buf (glyph cells.(r).(c))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "      ";
  Array.iter (Buffer.add_char buf) ramp;
  Buffer.add_string buf (Printf.sprintf "  (max %.2f)\n" !vmax);
  Buffer.contents buf

let grouped ~title ~series_names rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i name ->
      Buffer.add_string buf
        (Printf.sprintf "  [%c] %s\n" glyphs.(i mod Array.length glyphs) name))
    series_names;
  let label_w = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows in
  let scale = scale_for (List.concat_map snd rows) in
  List.iter
    (fun (label, values) ->
      List.iteri
        (fun i v ->
          let g = glyphs.(i mod Array.length glyphs) in
          let b = String.make (max 0 (int_of_float (Float.round (v *. scale)))) g in
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %-*s %.2f\n"
               label_w
               (if i = 0 then label else "")
               width b v))
        values)
    rows;
  Buffer.contents buf
