type slot = {
  node : int;
  start : float;
  finish : float;
  where : Placement.loc;
}

let compute (model : Perf_model.t) (placement : Placement.t) =
  Placement.seed_transfers placement model;
  let finish = Perf_model.completion_times model in
  Array.mapi
    (fun i f ->
      {
        node = i;
        start = f -. Perf_model.op_latency model i;
        finish = f;
        where = Placement.loc_of placement i;
      })
    finish

let makespan slots = Array.fold_left (fun acc s -> Float.max acc s.finish) 0.0 slots

(* Columns the makespan is scaled to. *)
let width = 60

let gantt (dfg : Dfg.t) slots =
  let total = Float.max 1.0 (makespan slots) in
  let scale = float_of_int width /. total in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "one-iteration schedule, makespan %.1f cycles\n" total);
  Array.iter
    (fun s ->
      let loc =
        match s.where with
        | Placement.Pe c -> Printf.sprintf "PE(%2d,%d)" c.Grid.row c.Grid.col
        | Placement.Ls e -> Printf.sprintf "LS[%3d] " e
      in
      let from = int_of_float (s.start *. scale) in
      let till = max (from + 1) (int_of_float (s.finish *. scale)) in
      let row = Bytes.make width '.' in
      for c = from to min (width - 1) (till - 1) do
        Bytes.set row c '='
      done;
      Buffer.add_string buf
        (Printf.sprintf "n%-3d %s %s [%5.1f,%5.1f) %s\n" s.node loc
           (Bytes.to_string row) s.start s.finish
           (Disasm.to_string dfg.Dfg.nodes.(s.node).Dfg.instr)))
    slots;
  Buffer.contents buf
