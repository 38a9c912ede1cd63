type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf ~indent ~level t =
  let pad n = if indent > 0 then Buffer.add_string buf (String.make (n * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char buf '\n' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      (* NaN / infinities are not valid JSON; emit null. *)
      Buffer.add_string buf "null"
    else Buffer.add_string buf (float_literal f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        write buf ~indent ~level:(level + 1) item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Assoc [] -> Buffer.add_string buf "{}"
  | Assoc fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf (if indent > 0 then "\": " else "\":");
        write buf ~indent ~level:(level + 1) v)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let to_string ?(indent = 2) t =
  let buf = Buffer.create 1024 in
  write buf ~indent ~level:0 t;
  if indent > 0 then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let fail p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let skip_ws p =
  let rec go () =
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      go ()
    | _ -> ()
  in
  go ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | _ -> fail p (Printf.sprintf "expected %c" c)

let parse_literal p lit value =
  if
    p.pos + String.length lit <= String.length p.src
    && String.sub p.src p.pos (String.length lit) = lit
  then begin
    p.pos <- p.pos + String.length lit;
    value
  end
  else fail p ("expected " ^ lit)

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' ->
      advance p;
      Buffer.contents buf
    | Some '\\' -> (
      advance p;
      match peek p with
      | Some '"' -> advance p; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance p; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance p; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance p; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance p; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance p; Buffer.add_char buf '\t'; go ()
      | Some 'b' -> advance p; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance p; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance p;
        if p.pos + 4 > String.length p.src then fail p "bad \\u escape";
        let hex = String.sub p.src p.pos 4 in
        p.pos <- p.pos + 4;
        let code = int_of_string ("0x" ^ hex) in
        (* Only BMP codepoints; encode as UTF-8. *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> fail p "bad escape")
    | Some c ->
      advance p;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek p with Some c -> is_num_char c | None -> false) do
    advance p
  done;
  let text = String.sub p.src start (p.pos - start) in
  if String.contains text '.' || String.contains text 'e' || String.contains text 'E'
  then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail p "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail p "bad number")

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some 'n' -> parse_literal p "null" Null
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some '"' -> String (parse_string_body p)
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [ parse_value p ] in
      skip_ws p;
      while peek p = Some ',' do
        advance p;
        items := parse_value p :: !items;
        skip_ws p
      done;
      expect p ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Assoc []
    end
    else begin
      let field () =
        skip_ws p;
        let k = parse_string_body p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws p;
      while peek p = Some ',' do
        advance p;
        fields := field () :: !fields;
        skip_ws p
      done;
      expect p '}';
      Assoc (List.rev !fields)
    end
  | Some _ -> parse_number p

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p with
  | v ->
    skip_ws p;
    if p.pos <> String.length s then Error "trailing garbage after JSON value"
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | _ -> None

let rec path keys t =
  match keys with
  | [] -> Some t
  | k :: rest -> ( match member k t with Some v -> path rest v | None -> None)

let to_int = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_assoc = function Assoc l -> Some l | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Readers. [Mistyped] carries what the value should have been ("an
   integer"); [field] turns it into the wire wording. [Failed] carries a
   finished message. Neither escapes [decode]. *)

type 'a reader = t -> 'a

exception Mistyped of string
exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let typed what conv j = match conv j with Some v -> v | None -> raise (Mistyped what)
let int = typed "an integer" to_int
let float = typed "a number" to_float
let string = typed "a string" to_string_opt
let bool = typed "a boolean" (function Bool b -> Some b | _ -> None)

let at where d j = try d j with Mistyped what -> raise (Mistyped (what ^ " at " ^ where))

let list d j =
  List.mapi (fun i v -> at (Printf.sprintf "[%d]" i) d v) (typed "a list" to_list j)

let assoc d j =
  List.map (fun (k, v) -> (k, at (Printf.sprintf "%S" k) d v)) (typed "an object" to_assoc j)

let read name d v = try d v with Mistyped what -> fail "field %S is not %s" name what

let field name d j =
  match member name j with Some v -> read name d v | None -> fail "missing field %S" name

let field_opt name d j =
  match member name j with None | Some Null -> None | Some v -> Some (read name d v)

let field_or ~default name d j =
  match member name j with None -> default | Some v -> read name d v

let lift of_string j = match of_string (string j) with Ok v -> v | Error e -> raise (Failed e)

let decode ?what d j =
  let prefix msg = match what with None -> msg | Some w -> w ^ ": " ^ msg in
  match d j with
  | v -> Ok v
  | exception Failed msg -> Error (prefix msg)
  | exception Mistyped what -> Error (prefix ("document is not " ^ what))

(* ------------------------------------------------------------------ *)
(* Files *)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string text)
  | exception Sys_error e -> Error ("cannot read " ^ e)

let write_file path t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      output_string oc (to_string t);
      output_char oc '\n');
  Sys.rename tmp path
