type measurement = {
  label : string;
  cycles : int;
  energy_nj : float;
  checked : (unit, string) result;
  stats : Stats.snapshot;
}

let summary_snapshot s =
  let reg = Stats.registry () in
  Ooo_model.register_summary_stats s (Stats.group reg "cpu");
  Stats.snapshot reg

let speedup ~baseline m =
  if m.cycles = 0 then 0.0 else float_of_int baseline.cycles /. float_of_int m.cycles

let efficiency ~baseline m = Energy_model.efficiency_gain ~baseline_nj:baseline.energy_nj m.energy_nj

let comparison_table (k : Kernel.t) ms =
  let t =
    Tables.create
      ~title:(Printf.sprintf "%s (%s)" k.Kernel.name k.Kernel.description)
      [
        ("configuration", Tables.Left);
        ("cycles", Tables.Right);
        ("speedup", Tables.Right);
        ("energy (uJ)", Tables.Right);
        ("outputs", Tables.Left);
      ]
  in
  List.iter
    (fun m ->
      Tables.add_row t
        [
          m.label;
          Tables.icell m.cycles;
          Tables.xcell (speedup ~baseline:(List.hd ms) m);
          Tables.fcell (m.energy_nj /. 1000.0);
          (match m.checked with Ok () -> "ok" | Error e -> "FAIL: " ^ e);
        ])
    ms;
  t

let single_core (k : Kernel.t) =
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let machine = Kernel.prepare_slice k mem ~lo:0 ~hi:k.Kernel.n in
  let r = Cpu_run.run k.Kernel.program machine in
  {
    label = "1-core OoO";
    cycles = r.Cpu_run.summary.Ooo_model.cycles;
    energy_nj = Energy_model.cpu_energy_nj r.Cpu_run.summary;
    checked = k.Kernel.check mem;
    stats = summary_snapshot r.Cpu_run.summary;
  }

let multicore (k : Kernel.t) =
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let r = Multicore.run k mem in
  let stats =
    let reg = Stats.registry () in
    let grp = Stats.group reg "cpu" in
    List.iteri
      (fun i s ->
        Ooo_model.register_summary_stats s
          (Stats.subgroup grp (Printf.sprintf "core%d" i)))
      r.Multicore.summaries;
    Stats.snapshot reg
  in
  {
    label = "16-core OoO";
    cycles = r.Multicore.cycles;
    energy_nj = Energy_model.multicore_energy_nj r.Multicore.summaries;
    checked = k.Kernel.check mem;
    stats;
  }

let mesa ?(options = Controller.default_options ()) (k : Kernel.t) =
  let grid = options.Controller.grid in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let report = Controller.run ~options k.Kernel.program machine in
  let accel = Energy_model.accel_energy ~grid report.Controller.activity in
  let energy_nj =
    Energy_model.cpu_energy_nj report.Controller.cpu_summary
    +. accel.Energy_model.total_nj
    +. Energy_model.mesa_energy_nj ~busy_cycles:report.Controller.mesa_busy_cycles
  in
  ( {
      label = grid.Grid.name;
      cycles = report.Controller.total_cycles;
      energy_nj;
      checked = k.Kernel.check mem;
      stats = report.Controller.stats;
    },
    report )

(* ------------------------------------------------------------------ *)
(* Translation. Building a kernel's hot-loop LDFG and running Algorithm 1
   over it are pure and cheap (tens of microseconds per kernel), so every
   call translates afresh and no state is kept between calls. The two
   cache readouts below remain only for perfbench, which still calls them. *)

let translation_cache_stats () = (0, 0, 0)

let clear_translation_cache () = ()

let dfg_of_kernel (k : Kernel.t) =
  let prog = k.Kernel.program in
  let code = Program.code prog in
  let backward =
    let rec find i =
      if i = Array.length code then failwith (k.Kernel.name ^ ": no backward branch")
      else
        match code.(i) with
        | Isa.Branch (_, _, _, off) when off < 0 -> i
        | _ -> find (i + 1)
    in
    find 0
  in
  let last_addr = Program.addr_of_index prog backward in
  let off = Option.get (Isa.branch_offset code.(backward)) in
  let entry = last_addr + off in
  let first = Program.index_of_addr prog entry in
  let region =
    {
      Region.entry;
      back_branch_addr = last_addr;
      instrs = Array.sub code first (backward - first + 1);
      pragma = Program.pragma_at prog entry;
      observed_iterations = 0;
    }
  in
  Ldfg.build_exn region

let optimized_config ~grid (k : Kernel.t) (dfg : Dfg.t) placement =
  Controller.optimized_config ~grid ~dfg
    ~pragma:(Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr)
    placement

let execute_loop ?attribution ?(hier = Hierarchy.default_config) (k : Kernel.t)
    dfg config =
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  Result.map
    (fun res -> (res, k.Kernel.check mem))
    (Engine.execute ?attribution ~config ~dfg ~machine ~hier:(Hierarchy.create hier) ())

let placement_of ?(kind = Interconnect.Mesh_noc) ~grid (k : Kernel.t) =
  Mapper.map ~grid ~kind (Perf_model.create (dfg_of_kernel k))

(* Empirical model: the trace executes on the in-core fabric with the
   frontend out of the way — wide issue, predication instead of branch
   recovery — but the core's own functional units, memory ports, cache
   behaviour and a window bounded by the fabric size. We reuse the OoO
   dataflow scheduler with that configuration over the real dynamic
   stream. *)
let dynaspam_core (config : Dynaspam.config) =
  {
    Ooo_model.default_config with
    Ooo_model.width = 8;
    rob_size = Ooo_model.default_config.Ooo_model.rob_size;
    mispredict_penalty = 0;
    alu_units = config.Dynaspam.alu_throughput;
    fp_units = config.Dynaspam.fp_throughput;
    mem_ports = config.Dynaspam.mem_ports;
  }

let dynaspam ?(config = Dynaspam.default_config) (k : Kernel.t) =
  let base = single_core k in
  let dfg = dfg_of_kernel k in
  if Dfg.node_count dfg > config.Dynaspam.window then
    { base with label = "DynaSpAM (not qualified)" }
  else begin
    let fabric_cpu = dynaspam_core config in
    let mem = Main_memory.create () in
    k.Kernel.setup mem;
    let machine = Kernel.prepare_slice k mem ~lo:0 ~hi:k.Kernel.n in
    let hier = Hierarchy.create Hierarchy.default_config in
    let r = Cpu_run.run ~config:fabric_cpu ~hierarchy:hier k.Kernel.program machine in
    let cycles = r.Cpu_run.summary.Ooo_model.cycles + 300 in
    let energy_nj =
      (* Same dynamic work minus the frontend/rename share, plus static
         power over the (shorter) runtime. *)
      (float_of_int cycles *. 0.175)
      +. ((base.energy_nj -. (float_of_int base.cycles *. 0.175)) *. 0.6)
    in
    {
      label = "DynaSpAM";
      cycles;
      energy_nj;
      checked = k.Kernel.check mem;
      stats = summary_snapshot r.Cpu_run.summary;
    }
  end
