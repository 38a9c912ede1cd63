type kind =
  | Transient_pe
  | Permanent_pe
  | Link_down
  | Config_upset
  | Port_degrade

let kind_name = function
  | Transient_pe -> "transient"
  | Permanent_pe -> "permanent"
  | Link_down -> "link"
  | Config_upset -> "config"
  | Port_degrade -> "ports"

let kind_of_name = function
  | "transient" -> Some Transient_pe
  | "permanent" -> Some Permanent_pe
  | "link" -> Some Link_down
  | "config" -> Some Config_upset
  | "ports" -> Some Port_degrade
  | _ -> None

type event = { at : int; kind : kind; coord : Grid.coord option }
type spec = { seed : int; events : event list }

let spec ?(seed = 0x5EED) events = { seed; events }

let spec_of_string ?(seed = 0x5EED) s =
  let parse_token tok =
    match String.split_on_char '@' (String.trim tok) with
    | [ k; rest ] -> (
      match kind_of_name k with
      | None -> Error (Printf.sprintf "unknown fault kind %S in %S" k tok)
      | Some kind -> (
        let at_str, coord_str =
          match String.split_on_char ':' rest with
          | [ a ] -> (a, None)
          | [ a; c ] -> (a, Some c)
          | _ -> (rest, None)
        in
        match int_of_string_opt at_str with
        | None -> Error (Printf.sprintf "bad fire point %S in %S" at_str tok)
        | Some at -> (
          match coord_str with
          | None -> Ok { at; kind; coord = None }
          | Some c -> (
            match String.split_on_char 'x' c with
            | [ r; col ] -> (
              match (int_of_string_opt r, int_of_string_opt col) with
              | Some r, Some col -> Ok { at; kind; coord = Some (Grid.coord r col) }
              | _ -> Error (Printf.sprintf "bad coordinate %S in %S" c tok))
            | _ -> Error (Printf.sprintf "bad coordinate %S in %S" c tok)))))
    | _ -> Error (Printf.sprintf "expected KIND@AT[:ROWxCOL], got %S" tok)
  in
  let tokens =
    List.filter (fun t -> String.trim t <> "") (String.split_on_char ',' s)
  in
  if tokens = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc tok ->
        Result.bind acc (fun evs ->
            Result.map (fun ev -> ev :: evs) (parse_token tok)))
      (Ok []) tokens
    |> Result.map (fun evs -> { seed; events = List.rev evs })

let spec_to_string sp =
  String.concat ","
    (List.map
       (fun ev ->
         let coord =
           match ev.coord with
           | None -> ""
           | Some c -> Printf.sprintf ":%dx%d" c.Grid.row c.Grid.col
         in
         Printf.sprintf "%s@%d%s" (kind_name ev.kind) ev.at coord)
       sp.events)

type strike = { s_coord : Grid.coord; s_kind : kind; s_value : int }
type step = { strikes : strike list; fabric_changed : bool }

type t = {
  grid : Grid.t;
  sd : int;
  prng : Prng.t;
  mutable pending : event list;        (* iteration-indexed events *)
  mutable next_due : int;              (* earliest pending fire point *)
  mutable config_pending : int list;   (* config-write ordinals *)
  mutable iteration : int;
  mutable config_writes : int;
  mutable dead : (Grid.coord * kind * int) list;
  mutable ports_lost : int;
  mutable used : Grid.coord list;
  mutable injected : int;
  mutable window_kinds : kind list;
}

let earliest events =
  List.fold_left (fun acc ev -> min acc ev.at) max_int events

let create ~grid sp =
  let iter_events, config_ords =
    List.partition (fun ev -> ev.kind <> Config_upset) sp.events
  in
  {
    grid;
    sd = sp.seed;
    prng = Prng.create sp.seed;
    pending = iter_events;
    next_due = earliest iter_events;
    config_pending = List.map (fun ev -> ev.at) config_ords;
    iteration = 0;
    config_writes = 0;
    dead = [];
    ports_lost = 0;
    used = [];
    injected = 0;
    window_kinds = [];
  }

let dead t = t.dead
let dead_coords t = List.map (fun (c, _, _) -> c) t.dead
let ports_lost t = t.ports_lost
let injected t = t.injected
let window_corrupted t = t.window_kinds <> []
let window_kinds t = t.window_kinds

let begin_window t ~used =
  t.used <- used;
  t.window_kinds <- []

let note_corruption t kind =
  if not (List.mem kind t.window_kinds) then
    t.window_kinds <- kind :: t.window_kinds

let is_dead t c = List.exists (fun (d, _, _) -> d = c) t.dead

(* 32-bit stuck-at / flip pattern; never zero so a flip always changes an
   integer value. *)
let draw_value t = (Int64.to_int (Prng.bits64 t.prng) land 0x7FFFFFFE) lor 1

(* Victim PE: an occupied, still-healthy PE when one exists (a fault that
   lands in unused silicon is latent and would make every schedule a no-op
   on small kernels), otherwise any healthy PE, otherwise none. *)
let draw_victim t =
  let healthy = List.filter (fun c -> not (is_dead t c)) t.used in
  match healthy with
  | _ :: _ -> Some (List.nth healthy (Prng.int t.prng (List.length healthy)))
  | [] ->
    let all = ref [] in
    Grid.iter_coords t.grid (fun c -> if not (is_dead t c) then all := c :: !all);
    (match !all with
    | [] -> None
    | l -> Some (List.nth l (Prng.int t.prng (List.length l))))

let victim_of t ev = match ev.coord with Some c -> Some c | None -> draw_victim t

let kill t coord kind =
  if not (is_dead t coord) then
    t.dead <- (coord, kind, draw_value t) :: t.dead

(* Shared idle step: the engine ticks the injector every iteration, and on
   almost all of them nothing is due — return a preallocated step instead of
   partitioning the pending list (and allocating two) each time. The
   [next_due] watermark is what lets the event-driven engine's batched time
   jumps stride over quiet iterations at constant cost. *)
let empty_step = { strikes = []; fabric_changed = false }

let tick t =
  let now = t.iteration in
  t.iteration <- now + 1;
  if now < t.next_due then empty_step
  else begin
  let due, rest = List.partition (fun ev -> ev.at <= now) t.pending in
  t.pending <- rest;
  t.next_due <- earliest rest;
  let strikes = ref [] in
  let fabric_changed = ref false in
  List.iter
    (fun ev ->
      t.injected <- t.injected + 1;
      match ev.kind with
      | Transient_pe -> (
        match victim_of t ev with
        | Some c ->
          strikes := { s_coord = c; s_kind = Transient_pe; s_value = draw_value t } :: !strikes
        | None -> ())
      | Permanent_pe -> (
        match victim_of t ev with
        | Some c ->
          kill t c Permanent_pe;
          fabric_changed := true
        | None -> ())
      | Link_down -> (
        match victim_of t ev with
        | Some c ->
          let slice = Interconnect.noc_slice t.grid c in
          Grid.iter_coords t.grid (fun d ->
              if Interconnect.noc_slice t.grid d = slice then kill t d Link_down);
          fabric_changed := true
        | None -> ())
      | Port_degrade ->
        t.ports_lost <- min (t.ports_lost + 1) (t.grid.Grid.mem_ports - 1)
      | Config_upset -> ())
    due;
  { strikes = !strikes; fabric_changed = !fabric_changed }
  end

let config_write t =
  t.config_writes <- t.config_writes + 1;
  let hit, rest = List.partition (fun ord -> ord <= t.config_writes) t.config_pending in
  t.config_pending <- rest;
  (match hit with
  | [] -> ()
  | l -> t.injected <- t.injected + List.length l);
  hit <> []
