type t = {
  x : Dfg.src array;
  f : Dfg.src array;
  x_read_unwritten : bool array;
  f_read_unwritten : bool array;
}

let fresh_file file = Array.init Reg.count (fun r -> Dfg.Reg_in (r, file))

let create () =
  {
    x = fresh_file Dfg.X;
    f = fresh_file Dfg.F;
    x_read_unwritten = Array.make Reg.count false;
    f_read_unwritten = Array.make Reg.count false;
  }

let lookup t file r =
  match file with
  | Dfg.X ->
    (match t.x.(r) with
    | Dfg.Reg_in _ when r <> 0 -> t.x_read_unwritten.(r) <- true
    | Dfg.Reg_in _ | Dfg.Node _ -> ());
    t.x.(r)
  | Dfg.F ->
    (match t.f.(r) with
    | Dfg.Reg_in _ -> t.f_read_unwritten.(r) <- true
    | Dfg.Node _ -> ());
    t.f.(r)

let write t file r node =
  match file with
  | Dfg.X -> if r <> 0 then t.x.(r) <- Dfg.Node node
  | Dfg.F -> t.f.(r) <- Dfg.Node node

let live_ins t file =
  let flags = match file with Dfg.X -> t.x_read_unwritten | Dfg.F -> t.f_read_unwritten in
  List.filter (fun r -> flags.(r)) (List.init Reg.count Fun.id)

let live_outs t file =
  let map = match file with Dfg.X -> t.x | Dfg.F -> t.f in
  List.filter_map
    (fun r -> match map.(r) with Dfg.Node _ as s -> Some (r, s) | Dfg.Reg_in _ -> None)
    (List.init Reg.count Fun.id)
