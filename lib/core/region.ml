type t = {
  entry : int;
  back_branch_addr : int;
  instrs : Isa.t array;
  pragma : Program.pragma option;
  observed_iterations : int;
}

let size t = Array.length t.instrs
let exit_addr t = t.back_branch_addr + 4
let addr_of_index t i = t.entry + (4 * i)

type mix = {
  compute : int;
  memory : int;
  control : int;
  fp : int;
  unsupported : int;
}

let mix t =
  let m = ref { compute = 0; memory = 0; control = 0; fp = 0; unsupported = 0 } in
  Array.iter
    (fun i ->
      let c = !m in
      m :=
        (match Isa.op_class i with
        | Isa.C_alu | Isa.C_mul | Isa.C_div -> { c with compute = c.compute + 1 }
        | Isa.C_fadd | Isa.C_fmul | Isa.C_fdiv -> { c with compute = c.compute + 1; fp = c.fp + 1 }
        | Isa.C_load | Isa.C_store -> { c with memory = c.memory + 1 }
        | Isa.C_branch -> { c with control = c.control + 1 }
        | Isa.C_jump | Isa.C_system -> { c with unsupported = c.unsupported + 1 }))
    t.instrs;
  !m
