type result = { halt : Interp.halt; summary : Ooo_model.summary }

let run ?(config = Ooo_model.default_config) ?hierarchy prog machine =
  let hierarchy =
    match hierarchy with
    | Some h -> h
    | None -> Hierarchy.create Hierarchy.default_config
  in
  let model = Ooo_model.create config hierarchy in
  let halt, _retired =
    Interp.run ~on_event:(Ooo_model.feed model) prog machine
  in
  let r = { halt; summary = Ooo_model.summary model } in
  Sim_meter.add r.summary.Ooo_model.cycles;
  r

let cycles r = r.summary.Ooo_model.cycles
let ipc r = Ooo_model.ipc r.summary
