type t = {
  machine : Machine.t;
  code : Isa.t array;
  base : int;
  model : Ooo_model.t;
  mutable halt : Interp.halt;
}

type verdict = Retired | Backward_taken | Halted

let create config hierarchy prog machine =
  {
    machine;
    code = Program.code prog;
    base = Program.base prog;
    model = Ooo_model.create config hierarchy prog;
    halt = Interp.Exited;
  }

let model c = c.model
let halt c = c.halt

let step c =
  let m = c.machine in
  let pc = m.Machine.pc in
  let i = Interp.slot c.code c.base pc in
  if i < 0 then begin
    c.halt <- Interp.Exited;
    Halted
  end
  else
    match c.code.(i) with
    | Isa.Ecall | Isa.Ebreak ->
      c.halt <- Interp.Ecall_halt;
      Halted
    | instr -> (
      let fact = Interp.dynamic_fact m instr in
      match Interp.exec m pc instr with
      | next ->
        m.Machine.pc <- next;
        Ooo_model.retire c.model i ~pc ~mem_addr:fact ~taken:(fact <> 0);
        (* Only a taken conditional branch both moves the PC backward and
           has a non-zero fact: a jump's fact is 0. *)
        if next < pc && fact <> 0 then Backward_taken else Retired
      | exception Invalid_argument msg ->
        c.halt <- Interp.Fault msg;
        Halted)

type result = { halt : Interp.halt; summary : Ooo_model.summary }

let max_steps = 100_000_000

let run ?(config = Ooo_model.default_config) ?hierarchy prog machine =
  let hierarchy =
    match hierarchy with
    | Some h -> h
    | None -> Hierarchy.create Hierarchy.default_config
  in
  let c = create config hierarchy prog machine in
  let rec go retired =
    if retired >= max_steps then Interp.Step_limit
    else match step c with Halted -> c.halt | Retired | Backward_taken -> go (retired + 1)
  in
  let halt = go 0 in
  let r = { halt; summary = Ooo_model.summary c.model } in
  Sim_meter.add r.summary.Ooo_model.cycles;
  r

let cycles r = r.summary.Ooo_model.cycles
let ipc r = Ooo_model.ipc r.summary
