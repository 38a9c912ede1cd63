let max_tiling ~(grid : Grid.t) ~(dfg : Dfg.t) =
  let mem_nodes =
    Array.fold_left
      (fun acc nd -> if Isa.is_memory nd.Dfg.instr then acc + 1 else acc)
      0 dfg.Dfg.nodes
  in
  let pe_nodes = Dfg.node_count dfg - mem_nodes in
  let by_pe =
    if pe_nodes = 0 then max_int else Grid.healthy_pe_count grid / pe_nodes
  in
  let by_ls = if mem_nodes = 0 then max_int else grid.Grid.ls_entries / mem_nodes in
  (* FP ops can only use half the array; bound by FP capacity when present. *)
  let fp_nodes =
    Array.fold_left
      (fun acc nd -> if Isa.is_fp nd.Dfg.instr && not (Isa.is_memory nd.Dfg.instr) then acc + 1 else acc)
      0 dfg.Dfg.nodes
  in
  let by_fp =
    if fp_nodes = 0 then max_int else Grid.healthy_pe_count grid / 2 / fp_nodes
  in
  max 1 (min by_pe (min by_ls by_fp))

let tiling ~grid ~dfg ~pragma =
  match pragma with
  | Some (Program.Omp_parallel | Program.Omp_simd) -> max_tiling ~grid ~dfg
  | None -> 1
