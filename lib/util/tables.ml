type align = Left | Right

type row = Cells of string list | Rule

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reverse order *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Tables.add_row: cell count does not match column count";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let headers t = t.headers

let data_rows t =
  List.rev t.rows
  |> List.filter_map (function Cells c -> Some c | Rule -> None)

let render t =
  let rows = List.rev t.rows in
  let all_cell_rows =
    t.headers :: List.filter_map (function Cells c -> Some c | Rule -> None) rows
  in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let note_row cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter note_row all_cell_rows;
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    match List.nth t.aligns i with
    | Left -> cell ^ String.make n ' '
    | Right -> String.make n ' ' ^ cell
  in
  let line cells = "| " ^ String.concat " | " (List.mapi pad cells) ^ " |" in
  let rule =
    "|" ^ String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "|"
  in
  let body =
    List.map (function Cells c -> line c | Rule -> rule) rows
  in
  let header_block = [ line t.headers; rule ] in
  let title_block = match t.title with None -> [] | Some s -> [ s; String.make (String.length s) '=' ] in
  String.concat "\n" (title_block @ header_block @ body) ^ "\n"

let print t =
  print_string (render t);
  flush stdout

let fcell x = Printf.sprintf "%.3f" x
let fcell1 x = Printf.sprintf "%.1f" x
let xcell x = Printf.sprintf "%.2fx" x

let icell n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + len / 3 + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf '_';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
