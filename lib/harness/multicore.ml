type result = {
  cycles : int;
  threads : int;
  summaries : Ooo_model.summary list;
}

let default_fork_join_cycles = 6000

let run ?(cores = 16) (k : Kernel.t) mem =
  if (not k.Kernel.parallel) || cores <= 1 then begin
    let hier = Hierarchy.create Hierarchy.default_config in
    let machine = Kernel.prepare_slice k mem ~lo:0 ~hi:k.Kernel.n in
    let r = Cpu_run.run ~hierarchy:hier k.Kernel.program machine in
    { cycles = r.Cpu_run.summary.Ooo_model.cycles; threads = 1; summaries = [ r.Cpu_run.summary ] }
  end
  else begin
    let n = k.Kernel.n in
    (* Index ranges per thread; with n < cores some slices are empty and
       spawn no thread at all. *)
    let slices =
      List.filter_map
        (fun tid ->
          let lo = n * tid / cores and hi = n * (tid + 1) / cores in
          if hi <= lo then None else Some (lo, hi))
        (List.init cores Fun.id)
    in
    let populated = List.length slices in
    (* Only running threads contend on the shared L2, so the per-sharer
       penalty scales with the populated slice count: padding a run with
       empty slices (cores >> n) leaves the cycle count unchanged. *)
    let hiers = Hierarchy.create_shared Hierarchy.default_config ~cores:populated in
    let summaries =
      List.mapi
        (fun i (lo, hi) ->
          let machine = Kernel.prepare_slice k mem ~lo ~hi in
          let r = Cpu_run.run ~hierarchy:hiers.(i) k.Kernel.program machine in
          r.Cpu_run.summary)
        slices
    in
    let slowest =
      List.fold_left (fun acc s -> max acc s.Ooo_model.cycles) 0 summaries
    in
    { cycles = slowest + default_fork_join_cycles; threads = populated; summaries }
  end
